package fleet_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
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

// namesOn returns k program names whose lineages shard owns in an
// n-shard fleet under e2eConfig.
func namesOn(t *testing.T, shard, n, k int) []string {
	t.Helper()
	var names []string
	for i := 0; len(names) < k && i <= 100; i++ {
		name := fmt.Sprintf("batch-prog-%d", i)
		owner, err := fleet.RouteAnalyzeWire(name, server.ConfigOf(e2eConfig), n)
		if err != nil {
			t.Fatal(err)
		}
		if owner == shard {
			names = append(names, name)
		}
	}
	if len(names) < k {
		t.Fatalf("first 100 names put fewer than %d programs on shard %d of %d", k, shard, n)
	}
	return names
}

// batchOf is one batch of gen's source under every name, in order.
func batchOf(source string, names ...string) server.BatchRequest {
	breq := server.BatchRequest{Config: server.ConfigOf(e2eConfig)}
	for _, name := range names {
		breq.Items = append(breq.Items, server.BatchItem{Source: source, Program: name})
	}
	return breq
}

// TestFleetBatchOneCallPerShard pins the sub-batch relay: a batch of
// four items spanning both shards reaches each shard as one /v1/batch
// call, while the routing counter still counts items.
func TestFleetBatchOneCallPerShard(t *testing.T) {
	_, _, c, base := startFleet(t, 2, server.Config{Workers: 2})
	byShard := programsSpanningShards(t, 2)
	names := []string{byShard[0][0], byShard[1][0], byShard[0][1], byShard[1][1]}
	results, err := c.Batch(context.Background(), batchOf(suite.Random(5, 6).Source, names...))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if !res.OK() {
			t.Errorf("item %d (%s): status %d: %s", i, names[i], res.Status, res.Error)
		}
	}
	want := []string{
		`ipcpd_fleet_requests_total{shard="0",endpoint="batch",code="200"} 1`,
		`ipcpd_fleet_requests_total{shard="1",endpoint="batch",code="200"} 1`,
	}
	if got := metricLines(t, base, "ipcpd_fleet_requests_total"); !reflect.DeepEqual(got, want) {
		t.Errorf("worker calls %q, want %q: one sub-batch per shard", got, want)
	}
	want = []string{`ipcpd_fleet_routed_total{shard="0"} 2`, `ipcpd_fleet_routed_total{shard="1"} 2`}
	if got := metricLines(t, base, "ipcpd_fleet_routed_total"); !reflect.DeepEqual(got, want) {
		t.Errorf("routed %q, want %q: one per item", got, want)
	}
}

// TestFleetBatchCutStream has a shard answer its sub-batch with one
// complete line (status 500) and then drop the connection, with or
// without half of a second line. The first item keeps the shard's
// line, an item whose line was cut mid-way answers 502, and every other
// item the shard owned comes back 200 from the runner-up, with one
// reroute each.
func TestFleetBatchCutStream(t *testing.T) {
	for _, midLine := range []bool{false, true} {
		t.Run(fmt.Sprintf("midLine=%v", midLine), func(t *testing.T) {
			const cut, healthy = 1, 0
			fl := startFleetWithBrokenShard(t, 2, cut, func(w http.ResponseWriter, r *http.Request) {
				// Read the whole request first: closing a connection with
				// unread input resets it, which may discard the line below.
				io.Copy(io.Discard, r.Body)
				w.Header().Set("Content-Type", "application/x-ndjson")
				json.NewEncoder(w).Encode(server.BatchItemResult{Index: 0, Status: http.StatusInternalServerError, Shard: -1, Error: "stub item failed"})
				if midLine {
					io.WriteString(w, `{"index":1,"status":200,"shard":-1,"rep`)
				}
				http.NewResponseController(w).Flush()
				panic(http.ErrAbortHandler)
			}, server.Config{Workers: 2})
			ts := httptest.NewServer(fl.Handler())
			t.Cleanup(ts.Close)

			onCut := namesOn(t, cut, 2, 3)
			names := append([]string{namesOn(t, healthy, 2, 1)[0]}, onCut...)
			gen := suite.Random(5, 6)
			local := ipcp.MustLoad(gen.Source).Analyze(e2eConfig)
			normalize(local)
			results, err := client.New(ts.URL).Batch(context.Background(), batchOf(gen.Source, names...))
			if err != nil {
				t.Fatalf("a cut stream must not fail the whole batch: %v", err)
			}

			// names[1] is the cut shard's first item, names[2] its second.
			if res := results[1]; res.Status != http.StatusInternalServerError || res.Error != "stub item failed" || res.Shard != cut {
				t.Errorf("item 1 (%s): status %d from shard %d (%q), want the stub's 500 line", names[1], res.Status, res.Shard, res.Error)
			}
			rerouted := []int{0, 2, 3}
			if midLine {
				if res := results[2]; res.Status != http.StatusBadGateway || res.Shard != cut || res.Error == "" {
					t.Errorf("item 2 (%s) cut mid-line: status %d from shard %d (%q), want 502", names[2], res.Status, res.Shard, res.Error)
				}
				rerouted = []int{0, 3}
			}
			for _, i := range rerouted {
				res := results[i]
				if !res.OK() || res.Shard != healthy {
					t.Errorf("item %d (%s): status %d from shard %d, want 200 from shard %d: %s",
						i, names[i], res.Status, res.Shard, healthy, res.Error)
					continue
				}
				normalize(res.Report)
				if !reflect.DeepEqual(res.Report, local) {
					t.Errorf("item %d (%s): report diverges from local Analyze", i, names[i])
				}
			}
			want := fmt.Sprintf("ipcpd_fleet_reroutes_total %d", len(rerouted)-1)
			if got := metricLines(t, ts.URL, "ipcpd_fleet_reroutes_total"); !reflect.DeepEqual(got, []string{want}) {
				t.Errorf("reroutes %q, want %q: one per item left without a line", got, want)
			}
		})
	}
}

// TestFleetBatchBusyItems has a shard answer every item 429 inside a
// 200 stream. The edge re-sends the shed items once, as one sub-batch,
// after the worker's Retry-After wait; each still answers 429 with the
// shard's message, and the other shard's item is served.
func TestFleetBatchBusyItems(t *testing.T) {
	const busy, healthy = 1, 0
	var hits atomic.Int32
	fl := startFleetWithBrokenShard(t, 2, busy, func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		var sub server.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&sub); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		for j := range sub.Items {
			json.NewEncoder(w).Encode(server.BatchItemResult{Index: j, Status: http.StatusTooManyRequests, Shard: -1, Error: "stub shard busy"})
		}
	}, server.Config{Workers: 2})
	ts := httptest.NewServer(fl.Handler())
	t.Cleanup(ts.Close)

	names := append(namesOn(t, busy, 2, 2), namesOn(t, healthy, 2, 1)...)
	start := time.Now()
	results, err := client.New(ts.URL).Batch(context.Background(), batchOf(suite.Random(5, 6).Source, names...))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < server.BusyRetryAfter {
		t.Errorf("batch answered after %v, before the worker's %v Retry-After wait", elapsed, server.BusyRetryAfter)
	}
	for i, res := range results[:2] {
		if res.Status != http.StatusTooManyRequests || res.Error != "stub shard busy" || res.Shard != busy {
			t.Errorf("item %d (%s): status %d from shard %d (%q), want the stub's 429", i, names[i], res.Status, res.Shard, res.Error)
		}
	}
	if res := results[2]; !res.OK() || res.Shard != healthy {
		t.Errorf("item 2 (%s): status %d from shard %d, want 200 from shard %d: %s", names[2], res.Status, res.Shard, healthy, res.Error)
	}
	if n := hits.Load(); n != 2 {
		t.Errorf("the busy shard saw %d sub-requests, want 2: the call and the edge's one retry", n)
	}
}
