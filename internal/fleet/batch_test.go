package fleet_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"ipcp"
	"ipcp/internal/fleet"
	"ipcp/internal/server"
	"ipcp/internal/server/client"
	"ipcp/internal/suite"
)

// startFleetWithBrokenShard runs shard `broken` as a stub that passes
// readiness but serves every other request with stub — a worker wedged
// in exactly the way admission control cannot see — while the other
// shards are real servers.
func startFleetWithBrokenShard(t *testing.T, n, broken int, stub http.HandlerFunc, wcfg server.Config) *fleet.Fleet {
	t.Helper()
	tw := newTestWorkers(t, wcfg)
	start := func(shard int) (*fleet.WorkerHandle, error) {
		if shard != broken {
			return tw.start(shard)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		mux.HandleFunc("/", stub)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: mux}
		done := make(chan error, 1)
		go func() { done <- hs.Serve(l) }()
		return &fleet.WorkerHandle{
			Addr: l.Addr().String(),
			Stop: func(ctx context.Context) error { return hs.Shutdown(ctx) },
			Kill: func() { hs.Close() },
			Done: done,
		}, nil
	}
	fl, err := fleet.New(fleet.Config{
		Workers:    n,
		Start:      start,
		BackoffMin: 50 * time.Millisecond,
		BackoffMax: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		fl.Shutdown(ctx)
	})
	return fl
}

// failWith is a stub shard's handler that fails every request with code.
func failWith(code int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(server.ErrorResponse{Error: "stub shard always fails"})
	}
}

// hangUp is a stub shard's handler that drops every connection without
// an answer: a worker that died after the supervisor's last readiness
// probe and before its exit was noticed.
func hangUp(w http.ResponseWriter, r *http.Request) {
	conn, _, err := http.NewResponseController(w).Hijack()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	conn.Close()
}

// TestFleetBatchPartialFailure is the satellite's scenario: one shard
// answers 500 (and, in a second pass, 504) while its siblings succeed.
// The batch must return one result per item — failures carry the
// shard's status per item, successes are full reports — and the router
// must keep serving afterwards.
func TestFleetBatchPartialFailure(t *testing.T) {
	for _, code := range []int{http.StatusInternalServerError, http.StatusGatewayTimeout} {
		t.Run(fmt.Sprintf("code%d", code), func(t *testing.T) {
			const broken = 1
			fl := startFleetWithBrokenShard(t, 2, broken, failWith(code), server.Config{Workers: 2})
			ts := httptest.NewServer(fl.Handler())
			t.Cleanup(ts.Close)
			c := client.New(ts.URL)

			byShard := programsSpanningShards(t, 2)
			names := []string{byShard[0][0], byShard[broken][0], byShard[0][1], byShard[broken][1]}
			gen := suite.Random(5, 6)
			local := ipcp.MustLoad(gen.Source).Analyze(e2eConfig)
			normalize(local)

			breq := server.BatchRequest{Config: server.ConfigOf(e2eConfig)}
			for _, name := range names {
				breq.Items = append(breq.Items, server.BatchItem{Source: gen.Source, Program: name})
			}
			results, err := c.Batch(context.Background(), breq)
			if err != nil {
				t.Fatalf("a broken shard must not fail the whole batch: %v", err)
			}
			for i, name := range names {
				res := results[i]
				shard, routeErr := fleet.RouteAnalyzeWire(name, server.ConfigOf(e2eConfig), 2)
				if routeErr != nil {
					t.Fatal(routeErr)
				}
				if shard == broken {
					if res.OK() || res.Status != code {
						t.Errorf("item %d (%s) on the broken shard: status %d, want %d", i, name, res.Status, code)
					}
					if res.Error == "" {
						t.Errorf("item %d (%s) failed without an error message", i, name)
					}
					continue
				}
				if !res.OK() {
					t.Errorf("item %d (%s) on a healthy shard failed: %d %s", i, name, res.Status, res.Error)
					continue
				}
				normalize(res.Report)
				if !reflect.DeepEqual(res.Report, local) {
					t.Errorf("item %d (%s): healthy-shard report diverges from local Analyze", i, name)
				}
			}

			// The router must not be wedged: a fresh single request to a
			// healthy shard still round-trips.
			if _, err := c.Analyze(context.Background(), server.AnalyzeRequest{
				Source: gen.Source, Program: byShard[0][0], Config: server.ConfigOf(e2eConfig),
			}); err != nil {
				t.Fatalf("router wedged after partial batch failure: %v", err)
			}
		})
	}
}

// TestFleetBatchValidation pins the edge contract: an empty batch and
// an oversized batch are rejected whole with 400 before any dispatch.
func TestFleetBatchValidation(t *testing.T) {
	_, _, c, _ := startFleet(t, 2, server.Config{Workers: 1})
	ctx := context.Background()
	if _, err := c.Batch(ctx, server.BatchRequest{}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("empty batch: err = %v, want HTTP 400", err)
	}
	over := server.BatchRequest{Items: make([]server.BatchItem, server.MaxBatchItems+1)}
	if _, err := c.Batch(ctx, over); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("oversized batch: err = %v, want HTTP 400", err)
	}
}

// TestFleetBatchFailover is the transport-level half of partial
// failure: one shard passes readiness but drops every connection, so
// each batch item it owns must fail over to the runner-up. Every item
// of a batch spanning both shards comes back 200 from the healthy
// shard and equal to local Analyze, with one reroute per item the dead
// shard owned.
func TestFleetBatchFailover(t *testing.T) {
	const dead, healthy = 1, 0
	fl := startFleetWithBrokenShard(t, 2, dead, hangUp, server.Config{Workers: 2})
	ts := httptest.NewServer(fl.Handler())
	t.Cleanup(ts.Close)

	byShard := programsSpanningShards(t, 2)
	names := []string{byShard[healthy][0], byShard[dead][0], byShard[healthy][1], byShard[dead][1]}
	gen := suite.Random(5, 6)
	local := ipcp.MustLoad(gen.Source).Analyze(e2eConfig)
	normalize(local)

	breq := server.BatchRequest{Config: server.ConfigOf(e2eConfig)}
	for _, name := range names {
		breq.Items = append(breq.Items, server.BatchItem{Source: gen.Source, Program: name})
	}
	results, err := client.New(ts.URL).Batch(context.Background(), breq)
	if err != nil {
		t.Fatalf("a dead shard must not fail the whole batch: %v", err)
	}
	for i, res := range results {
		if !res.OK() || res.Shard != healthy {
			t.Errorf("item %d (%s): status %d from shard %d, want 200 from shard %d: %s",
				i, names[i], res.Status, res.Shard, healthy, res.Error)
			continue
		}
		normalize(res.Report)
		if !reflect.DeepEqual(res.Report, local) {
			t.Errorf("item %d (%s): failed-over report diverges from local Analyze", i, names[i])
		}
	}
	if got, want := metricLines(t, ts.URL, "ipcpd_fleet_reroutes_total"), []string{"ipcpd_fleet_reroutes_total 2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("reroutes %q, want %q: one per item the dead shard owned", got, want)
	}
}

// TestFleetBatchDoublingChain sends the d = 40 doubling chain, whose
// jump function is a tree of 2^40 leaves but a DAG of 40 nodes, as one
// item of a batch through a 2-shard fleet. A worker that could not
// analyze it would drop the request, and dispatch would re-send it to
// the runner-up shard; instead every item must answer 200 and equal
// the local Analyze.
func TestFleetBatchDoublingChain(t *testing.T) {
	sources := map[string]string{
		"chain": suite.DoublingChain(40),
		"randp": suite.Random(3, 4).Source,
	}
	names := []string{"chain", "randp"}
	_, _, fc, _ := startFleet(t, 2, server.Config{Workers: 1})
	breq := server.BatchRequest{Config: server.ConfigOf(e2eConfig)}
	for _, name := range names {
		breq.Items = append(breq.Items, server.BatchItem{Source: sources[name], Program: name})
	}
	res, err := fc.Batch(context.Background(), breq)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		if res[i].Status != http.StatusOK {
			t.Fatalf("item %s: status %d (%s)", name, res[i].Status, res[i].Error)
		}
		want := ipcp.MustLoad(sources[name]).Analyze(e2eConfig)
		normalize(want, res[i].Report)
		if !reflect.DeepEqual(res[i].Report, want) {
			t.Errorf("item %s: fleet batch report diverges from local Analyze", name)
		}
	}
	if v, ok := res[0].Report.ConstantValue("SINK", "M"); !ok || v != 1<<40 {
		t.Errorf("chain: SINK's M = %d (constant %v), want 2^40", v, ok)
	}
}
