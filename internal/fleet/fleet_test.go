package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ipcp"
	"ipcp/internal/fleet"
	"ipcp/internal/mf/ast"
	"ipcp/internal/mf/parser"
	"ipcp/internal/server"
	"ipcp/internal/server/client"
	"ipcp/internal/suite"
)

// End-to-end proof of the fleet contract: a report served through the
// router — dispatched, batched, failed over, or incremental on a warm
// shard — is reflect.DeepEqual to the single-process server's answer
// and to a local from-scratch Analyze; killing a worker errors only
// the work in flight on that shard and the supervisor restarts it
// within the backoff bound.

var e2eConfig = ipcp.Config{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true, Workers: 1}

// testWorkers runs each shard as an in-process server.Server behind a
// real TCP listener, so the supervisor sees genuine readiness probes,
// transport errors, and drains without spawning processes.
type testWorkers struct {
	t   *testing.T
	cfg server.Config

	// cfgFor, when non-nil, overrides cfg per shard — the crash-restart
	// test gives each shard its own cache directory, the way ipcpd
	// -workers does with DIR/shard-<i>.
	cfgFor func(shard int) server.Config

	mu      sync.Mutex
	handles map[int]*fleet.WorkerHandle
}

func newTestWorkers(t *testing.T, cfg server.Config) *testWorkers {
	return &testWorkers{t: t, cfg: cfg, handles: make(map[int]*fleet.WorkerHandle)}
}

func (tw *testWorkers) start(shard int) (*fleet.WorkerHandle, error) {
	cfg := tw.cfg
	if tw.cfgFor != nil {
		cfg = tw.cfgFor(shard)
	}
	s, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: s.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(l) }()
	h := &fleet.WorkerHandle{
		Addr: l.Addr().String(),
		Stop: func(ctx context.Context) error {
			err := hs.Shutdown(ctx)
			s.Shutdown(ctx)
			return err
		},
		Kill: func() { hs.Close() },
		Done: done,
	}
	tw.mu.Lock()
	tw.handles[shard] = h
	tw.mu.Unlock()
	return h, nil
}

// kill crashes a shard the way a dying process does: the listener and
// every connection drop, and the worker's Done fires.
func (tw *testWorkers) kill(shard int) {
	tw.mu.Lock()
	h := tw.handles[shard]
	tw.mu.Unlock()
	if h == nil {
		tw.t.Fatalf("no handle for shard %d", shard)
	}
	h.Kill()
}

// startFleet brings up an n-shard fleet over in-process workers and
// returns it with a typed client and the router's base URL.
func startFleet(t *testing.T, n int, wcfg server.Config) (*fleet.Fleet, *testWorkers, *client.Client, string) {
	return startFleetWorkers(t, n, newTestWorkers(t, wcfg))
}

func startFleetWorkers(t *testing.T, n int, tw *testWorkers) (*fleet.Fleet, *testWorkers, *client.Client, string) {
	t.Helper()
	fl, err := fleet.New(fleet.Config{
		Workers:    n,
		Start:      tw.start,
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
	ts := httptest.NewServer(fl.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		fl.Shutdown(ctx)
	})
	return fl, tw, client.New(ts.URL), ts.URL
}

// startSingleServer runs one single-process server, the reference the
// fleet must match, and returns its base URL.
func startSingleServer(t *testing.T) string {
	t.Helper()
	s, err := server.New(server.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return ts.URL
}

// metricLines returns the samples of the metric family name in the
// /metrics exposition at base.
func metricLines(t *testing.T, base, name string) []string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, name+" ") || strings.HasPrefix(line, name+"{") {
			lines = append(lines, line)
		}
	}
	return lines
}

// normalize clears the report fields that legitimately differ between
// a served run and a local one (mirrors the server e2e suite).
func normalize(reps ...*ipcp.Report) {
	for _, r := range reps {
		if r == nil {
			continue
		}
		r.Config.Workers = 0
		r.Incremental = nil
		for i := range r.Passes {
			r.Passes[i].Nanos = 0
		}
	}
}

// editFirstLiteral bumps the first integer literal in the named unit.
func editFirstLiteral(t *testing.T, src, unit string) string {
	t.Helper()
	file, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	edited := false
	for _, u := range file.Units {
		if u.Name != unit {
			continue
		}
		ast.RewriteExprs(u, func(e ast.Expr) ast.Expr {
			if lit, ok := e.(*ast.IntLit); ok && !edited {
				lit.Value += 3
				edited = true
			}
			return e
		})
	}
	if !edited {
		t.Fatalf("unit %s has no integer literal to edit", unit)
	}
	return ast.Format(file)
}

// programsSpanningShards returns per-shard program names (with their
// sources) under the standard config, so tests can aim work at a
// specific shard of an n-shard fleet. Routing is deterministic, so
// this is a pure computation.
func programsSpanningShards(t *testing.T, n int) map[int][]string {
	t.Helper()
	byShard := make(map[int][]string)
	covered := func() bool {
		for shard := 0; shard < n; shard++ {
			if len(byShard[shard]) < 2 {
				return false
			}
		}
		return true
	}
	for i := 0; !covered() && i <= 100; i++ {
		name := fmt.Sprintf("fleet-prog-%d", i)
		shard, err := fleet.RouteAnalyzeWire(name, server.ConfigOf(e2eConfig), n)
		if err != nil {
			t.Fatal(err)
		}
		byShard[shard] = append(byShard[shard], name)
	}
	if !covered() {
		t.Fatalf("first 100 names do not put two programs on every one of %d shards", n)
	}
	return byShard
}

// TestFleetMatchesSingleServerAndLocal is the acceptance criterion:
// the same requests — singles and a /v1/batch — through a 2-worker
// fleet, a single-process server, and local Analyze must produce
// DeepEqual reports, with batch items landing on their predicted
// shards.
func TestFleetMatchesSingleServerAndLocal(t *testing.T) {
	_, _, fc, _ := startFleet(t, 2, server.Config{Workers: 2})
	sc := client.New(startSingleServer(t))

	byShard := programsSpanningShards(t, 2)
	var names []string
	for shard := 0; shard < 2; shard++ {
		names = append(names, byShard[shard][0], byShard[shard][1])
	}

	sources := make(map[string]string)
	locals := make(map[string]*ipcp.Report)
	for i, name := range names {
		gen := suite.Random(int64(i), 6)
		sources[name] = gen.Source
		locals[name] = ipcp.MustLoad(gen.Source).Analyze(e2eConfig)
		normalize(locals[name])
	}

	ctx := context.Background()
	for _, name := range names {
		req := server.AnalyzeRequest{Source: sources[name], Program: name, Config: server.ConfigOf(e2eConfig)}
		fresp, err := fc.Analyze(ctx, req)
		if err != nil {
			t.Fatalf("fleet analyze %s: %v", name, err)
		}
		sresp, err := sc.Analyze(ctx, req)
		if err != nil {
			t.Fatalf("single analyze %s: %v", name, err)
		}
		normalize(fresp.Report, sresp.Report)
		if !reflect.DeepEqual(fresp.Report, locals[name]) {
			t.Errorf("%s: fleet report diverges from local Analyze", name)
		}
		if !reflect.DeepEqual(fresp.Report, sresp.Report) {
			t.Errorf("%s: fleet report diverges from single-process server", name)
		}
	}

	// The same sources as one batch through both serving stacks.
	breq := server.BatchRequest{Config: server.ConfigOf(e2eConfig)}
	for _, name := range names {
		breq.Items = append(breq.Items, server.BatchItem{Source: sources[name], Program: name})
	}
	fres, err := fc.Batch(ctx, breq)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := sc.Batch(ctx, breq)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		if !fres[i].OK() || !sres[i].OK() {
			t.Fatalf("batch item %d (%s): fleet status %d, single status %d",
				i, name, fres[i].Status, sres[i].Status)
		}
		want, wantErr := fleet.RouteAnalyzeWire(name, server.ConfigOf(e2eConfig), 2)
		if wantErr != nil {
			t.Fatal(wantErr)
		}
		if fres[i].Shard != want {
			t.Errorf("batch item %s landed on shard %d, rendezvous owner is %d", name, fres[i].Shard, want)
		}
		if sres[i].Shard != -1 {
			t.Errorf("single-process batch item %s reports shard %d, want -1", name, sres[i].Shard)
		}
		normalize(fres[i].Report, sres[i].Report)
		if !reflect.DeepEqual(fres[i].Report, locals[name]) {
			t.Errorf("%s: fleet batch report diverges from local Analyze", name)
		}
		if !reflect.DeepEqual(fres[i].Report, sres[i].Report) {
			t.Errorf("%s: fleet batch report diverges from single-process batch", name)
		}
	}
}

// TestFleetShardStickiness pins the routing invariant: repeat requests
// down one lineage land on the same shard (X-Fleet-Shard), and the
// second, edited request re-analyzes only part of the program — proof
// it reached the worker holding the lineage's resident snapshot.
func TestFleetShardStickiness(t *testing.T) {
	_, _, _, base := startFleet(t, 2, server.Config{Workers: 2})
	gen := suite.Random(7, 8)
	edited := editFirstLiteral(t, gen.Source, "RANDP")
	want := ipcp.MustLoad(edited).Analyze(e2eConfig)
	normalize(want)

	post := func(src string) (string, *server.AnalyzeResponse) {
		t.Helper()
		body, err := json.Marshal(server.AnalyzeRequest{
			Source: src, Program: "sticky", Config: server.ConfigOf(e2eConfig),
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("analyze: status %d: %s", resp.StatusCode, raw)
		}
		var out server.AnalyzeResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.Header.Get("X-Fleet-Shard"), &out
	}

	shard1, _ := post(gen.Source)
	shard2, resp := post(edited)
	if shard1 == "" || shard1 != shard2 {
		t.Fatalf("lineage moved shards between requests: %q then %q", shard1, shard2)
	}
	st := resp.Report.Incremental
	if st == nil {
		t.Fatal("second request lost the incremental path entirely")
	}
	if st.Reanalyzed == 0 || st.Reanalyzed >= st.TotalProcedures {
		t.Fatalf("second request re-analyzed %d/%d procedures; the resident snapshot did not carry over",
			st.Reanalyzed, st.TotalProcedures)
	}
	normalize(resp.Report)
	if !reflect.DeepEqual(resp.Report, want) {
		t.Fatal("warm-shard incremental report diverges from local Analyze")
	}
}

// TestFleetFailoverAndRestart kills one worker: requests for its
// lineages must immediately fail over to the rendezvous runner-up with
// correct results, and the supervisor must restart the shard within
// the backoff bound.
func TestFleetFailoverAndRestart(t *testing.T) {
	fl, tw, c, base := startFleet(t, 2, server.Config{Workers: 2})
	byShard := programsSpanningShards(t, 2)
	victim := 1
	name := byShard[victim][0]
	gen := suite.Random(3, 6)
	want := ipcp.MustLoad(gen.Source).Analyze(e2eConfig)
	normalize(want)
	req := server.AnalyzeRequest{Source: gen.Source, Program: name, Config: server.ConfigOf(e2eConfig)}

	ctx := context.Background()
	if _, err := c.Analyze(ctx, req); err != nil {
		t.Fatalf("warmup on shard %d: %v", victim, err)
	}

	tw.kill(victim)
	resp, err := c.Analyze(ctx, req)
	if err != nil {
		t.Fatalf("analyze after killing shard %d did not fail over: %v", victim, err)
	}
	normalize(resp.Report)
	if !reflect.DeepEqual(resp.Report, want) {
		t.Fatal("failed-over report diverges from local Analyze")
	}

	// BackoffMin is 50ms; well within 5s the shard must be back with its
	// restart counted.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := fl.Shards()[victim]
		if st.Ready && st.Restarts >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard %d not restarted within the backoff bound: %+v", victim, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := c.Analyze(ctx, req); err != nil {
		t.Fatalf("analyze after restart: %v", err)
	}

	resp2, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	for _, want := range []string{
		fmt.Sprintf("ipcpd_fleet_restarts_total{shard=\"%d\"} 1", victim),
		"ipcpd_fleet_routed_total",
		"ipcpd_fleet_requests_total",
		"ipcpd_fleet_workers 2",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("fleet metrics missing %q", want)
		}
	}
}

// TestFleetCrashRestartRecoversWAL is the fleet half of the durability
// contract. Each shard gets its own cache directory (as ipcpd -workers
// lays them out); the victim shard's directory is pre-seeded with the
// blobs of the program's donor run — what a shard killed right after
// acknowledging its puts leaves behind, since every acknowledged put is
// on disk. The worker must serve them at boot (the first analysis runs
// at a 100% summary hit rate), and after a crash plus supervisor
// restart on the same directory the lineage must still be warm.
func TestFleetCrashRestartRecoversWAL(t *testing.T) {
	root := t.TempDir()
	gen := suite.Random(3, 6)
	want := ipcp.MustLoad(gen.Source).Analyze(e2eConfig)
	normalize(want)

	// Donor run: the same program and configuration through a local disk
	// cache, producing the exact content-addressed blobs a shard's
	// analysis would have put (keys are deterministic across processes).
	donorDir := t.TempDir()
	donorCache, _, err := ipcp.NewDurableCache(ipcp.DurableCacheOptions{Dir: donorDir})
	if err != nil {
		t.Fatal(err)
	}
	ipcp.MustLoad(gen.Source).AnalyzeIncremental(e2eConfig, nil, donorCache)

	byShard := programsSpanningShards(t, 2)
	victim := 1
	name := byShard[victim][0]

	// Seed the victim shard's directory with the donor blobs, as if a
	// previous worker died right after acknowledging them.
	shardDir := filepath.Join(root, fmt.Sprintf("shard-%d", victim))
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(donorDir)
	if err != nil {
		t.Fatal(err)
	}
	seeded := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".ipcs") {
			continue
		}
		blob, err := os.ReadFile(filepath.Join(donorDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(shardDir, e.Name()), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		seeded++
	}
	if seeded == 0 {
		t.Fatal("donor run produced no cache blobs to seed")
	}

	tw := newTestWorkers(t, server.Config{})
	tw.cfgFor = func(shard int) server.Config {
		return server.Config{Workers: 2, CacheDir: filepath.Join(root, fmt.Sprintf("shard-%d", shard))}
	}
	fl, _, c, _ := startFleetWorkers(t, 2, tw)

	// First analysis on the seeded shard: every summary lookup must
	// hit — the only possible source is the seeded directory.
	ctx := context.Background()
	req := server.AnalyzeRequest{Source: gen.Source, Program: name, Config: server.ConfigOf(e2eConfig)}
	resp, err := c.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st := resp.Report.Incremental
	if st == nil || st.HitRate() != 1 {
		t.Fatalf("first analysis on the seeded directory did not run fully warm: %+v", st)
	}
	normalize(resp.Report)
	if !reflect.DeepEqual(resp.Report, want) {
		t.Fatal("report from the seeded directory diverges from local Analyze")
	}

	// Crash the shard and let the supervisor restart it on the same
	// directory: the lineage must come back warm from disk.
	tw.kill(victim)
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := fl.Shards()[victim]
		if s.Ready && s.Restarts >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard %d not restarted in time: %+v", victim, s)
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp, err = c.Analyze(ctx, req)
	if err != nil {
		t.Fatalf("analyze after crash restart: %v", err)
	}
	if st := resp.Report.Incremental; st == nil || st.HitRate() != 1 {
		t.Fatalf("restarted shard lost its summaries: %+v", st)
	}
	normalize(resp.Report)
	if !reflect.DeepEqual(resp.Report, want) {
		t.Fatal("post-restart report diverges from local Analyze")
	}
}
