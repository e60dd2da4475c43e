package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ipcp"
	"ipcp/internal/mf/ast"
	"ipcp/internal/mf/parser"
	"ipcp/internal/server"
	"ipcp/internal/server/client"
	"ipcp/internal/suite"
)

// This file is the end-to-end proof of the serving contract: a report
// served over HTTP — concurrent, coalesced, or incremental — is
// reflect.DeepEqual to a local from-scratch Analyze of the same source
// under the same configuration; overload answers 429, deadline expiry
// answers 504 without wedging the pool, and shutdown drains.

// startServer builds a Server, mounts it on an httptest listener, and
// returns a typed client pointed at it.
func startServer(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, client.New(ts.URL)
}

// editFirstLiteral bumps the first integer literal in the named unit —
// the same single-procedure edit the incremental differential suite
// uses (editing the main program keeps the invalidation closure small).
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

// normalize clears the report fields that legitimately differ between
// a served run and a local one: the echoed worker knob, wall-clock
// Nanos, and the incremental bookkeeping.
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

var e2eConfig = ipcp.Config{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true, Workers: 1}

// TestServerConcurrentClientsMatchLocal fires concurrent clients — an
// even split of an original source and an edited one, all sharing one
// program lineage — and requires every response to equal the local
// from-scratch analysis of its source.
func TestServerConcurrentClientsMatchLocal(t *testing.T) {
	gen := suite.Random(1, 8)
	edited := editFirstLiteral(t, gen.Source, "RANDP")
	wantV1 := ipcp.MustLoad(gen.Source).Analyze(e2eConfig)
	wantV2 := ipcp.MustLoad(edited).Analyze(e2eConfig)
	normalize(wantV1, wantV2)

	_, c := startServer(t, server.Config{Workers: 4})
	const clients = 10
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src, want := gen.Source, wantV1
			if i%2 == 1 {
				src, want = edited, wantV2
			}
			resp, err := c.Analyze(context.Background(), server.AnalyzeRequest{
				Source:  src,
				Program: "randp",
				Config:  server.ConfigOf(e2eConfig),
			})
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			normalize(resp.Report)
			if !reflect.DeepEqual(resp.Report, want) {
				t.Errorf("client %d: served report diverges from local Analyze", i)
			}
		}(i)
	}
	wg.Wait()
}

// TestServerIncrementalAcrossRequests sends an original and then an
// edited source down one lineage: the second response must report a
// partial re-analysis (the snapshot survived between requests) and
// still match scratch.
func TestServerIncrementalAcrossRequests(t *testing.T) {
	gen := suite.Random(2, 8)
	edited := editFirstLiteral(t, gen.Source, "RANDP")
	_, c := startServer(t, server.Config{Workers: 2})

	req := server.AnalyzeRequest{Source: gen.Source, Program: "randp", Config: server.ConfigOf(e2eConfig)}
	first, err := c.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	st := first.Report.Incremental
	if st == nil || st.Reanalyzed != st.TotalProcedures {
		t.Fatalf("cold request should re-analyze everything, got %+v", st)
	}

	req.Source = edited
	second, err := c.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	st = second.Report.Incremental
	if st == nil || st.Reanalyzed >= st.TotalProcedures || st.Reused == 0 {
		t.Fatalf("edited request should reuse summaries, got %+v", st)
	}
	want := ipcp.MustLoad(edited).Analyze(e2eConfig)
	normalize(want, second.Report)
	if !reflect.DeepEqual(second.Report, want) {
		t.Fatal("incremental served report diverges from local Analyze")
	}
}

// TestServerSnapshotLRU pins the resident-snapshot bound: with
// MaxSnapshots lineages at most, a third lineage evicts the least
// recently used one, the eviction surfaces in /metrics, and a request
// in the evicted lineage still answers correctly — it loses its
// snapshot but not the cached summaries, which the engine refetches by
// content address.
func TestServerSnapshotLRU(t *testing.T) {
	_, c := startServer(t, server.Config{Workers: 1, MaxSnapshots: 2})
	ctx := context.Background()

	sources := map[string]string{
		"a": suite.Random(11, 4).Source,
		"b": suite.Random(12, 4).Source,
		"c": suite.Random(13, 4).Source,
	}
	for _, lineage := range []string{"a", "b", "c"} {
		req := server.AnalyzeRequest{Source: sources[lineage], Program: lineage, Config: server.ConfigOf(e2eConfig)}
		if _, err := c.Analyze(ctx, req); err != nil {
			t.Fatal(err)
		}
	}

	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "ipcpd_snapshots 2\n") {
		t.Fatalf("snapshot gauge not capped at 2:\n%s", text)
	}
	if !strings.Contains(text, "ipcpd_snapshot_evictions_total 1\n") {
		t.Fatalf("eviction counter not surfaced:\n%s", text)
	}

	// Lineage "a" was evicted: its snapshot is gone, but its summaries
	// are still in the shared cache under content-addressed keys, so an
	// unchanged re-request runs without a snapshot yet reuses every
	// procedure — eviction costs resident memory, not recomputation —
	// and the report must match a local Analyze exactly.
	rea, err := c.Analyze(ctx, server.AnalyzeRequest{Source: sources["a"], Program: "a", Config: server.ConfigOf(e2eConfig)})
	if err != nil {
		t.Fatal(err)
	}
	if st := rea.Report.Incremental; st == nil || st.Reused == 0 || st.CacheHits == 0 {
		t.Fatalf("evicted lineage should reuse cached summaries, got %+v", st)
	}
	want := ipcp.MustLoad(sources["a"]).Analyze(e2eConfig)
	normalize(want, rea.Report)
	if !reflect.DeepEqual(rea.Report, want) {
		t.Fatal("evicted-lineage report diverges from local Analyze")
	}

	// Lineage "c" is still resident: an unchanged re-request reuses
	// every summary.
	rec, err := c.Analyze(ctx, server.AnalyzeRequest{Source: sources["c"], Program: "c", Config: server.ConfigOf(e2eConfig)})
	if err != nil {
		t.Fatal(err)
	}
	if st := rec.Report.Incremental; st == nil || st.Reanalyzed != 0 {
		t.Fatalf("resident lineage should reuse every summary, got %+v", st)
	}
}

// gatedServer is startServer plus the analysis gate: every pooled job
// announces itself on the returned channel, then blocks until release
// is called (idempotent, and registered as cleanup so a failing test
// never wedges Shutdown).
func gatedServer(t *testing.T, cfg server.Config) (*server.Server, *client.Client, chan struct{}, func()) {
	t.Helper()
	s, c := startServer(t, cfg)
	entered := make(chan struct{}, 16)
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	s.SetGate(func() { entered <- struct{}{}; <-gate })
	return s, c, entered, release
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerCoalescing holds a leader in flight behind the analysis
// gate, parks three identical requests behind it, and asserts exactly
// those three come back coalesced with bit-identical reports — and
// that the coalesced counter surfaces in /metrics.
func TestServerCoalescing(t *testing.T) {
	gen := suite.Random(3, 6)
	s, c, entered, release := gatedServer(t, server.Config{Workers: 1})

	const followers = 3
	req := server.AnalyzeRequest{Source: gen.Source, Program: "randp", Config: server.ConfigOf(e2eConfig)}
	type outcome struct {
		resp *server.AnalyzeResponse
		err  error
	}
	results := make(chan outcome, followers+1)
	call := func() {
		resp, err := c.Analyze(context.Background(), req)
		results <- outcome{resp, err}
	}
	go call() // leader: enters the pool and blocks on the gate
	<-entered
	for i := 0; i < followers; i++ {
		go call()
	}
	waitFor(t, "followers to park behind the leader", func() bool { return s.Waiters() == followers })
	release()

	coalesced := 0
	for i := 0; i < followers+1; i++ {
		out := <-results
		if out.err != nil {
			t.Fatal(out.err)
		}
		if out.resp.Coalesced {
			coalesced++
		}
		normalize(out.resp.Report)
	}
	if coalesced != followers {
		t.Fatalf("coalesced = %d, want %d", coalesced, followers)
	}

	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("ipcpd_coalesced_total %d", followers); !strings.Contains(text, want) {
		t.Fatalf("metrics missing %q:\n%s", want, text)
	}
}

// TestServerDeadlineDoesNotWedgePool expires a request's deadline
// while its job holds the only worker: the request must answer 504,
// and once the job unblocks the pool must serve again.
func TestServerDeadlineDoesNotWedgePool(t *testing.T) {
	gen := suite.Random(4, 6)
	_, c, _, release := gatedServer(t, server.Config{Workers: 1})

	req := server.AnalyzeRequest{Source: gen.Source, Program: "randp", Config: server.ConfigOf(e2eConfig), TimeoutMS: 50}
	_, err := c.Analyze(context.Background(), req)
	var se *client.StatusError
	if !errors.As(err, &se) || se.Code != 504 {
		t.Fatalf("expired request: got %v, want HTTP 504", err)
	}

	release() // the abandoned job aborts on its first context check
	req.TimeoutMS = 0
	if _, err := c.Analyze(context.Background(), req); err != nil {
		t.Fatalf("pool wedged after deadline expiry: %v", err)
	}
}

// TestServerAdmissionControl fills the one-worker, one-slot queue and
// asserts the next (distinct) request is shed with 429 + Retry-After
// while the admitted ones still complete.
func TestServerAdmissionControl(t *testing.T) {
	gen := suite.Random(5, 6)
	s, c, entered, release := gatedServer(t, server.Config{Workers: 1, QueueDepth: 1})

	req := func(program string) server.AnalyzeRequest {
		return server.AnalyzeRequest{Source: gen.Source, Program: program, Config: server.ConfigOf(e2eConfig)}
	}
	results := make(chan error, 2)
	go func() { _, err := c.Analyze(context.Background(), req("a")); results <- err }()
	<-entered
	go func() { _, err := c.Analyze(context.Background(), req("b")); results <- err }()
	waitFor(t, "second request to fill the queue", func() bool { return s.QueueDepth() == 1 })

	_, err := c.Analyze(context.Background(), req("c"))
	var se *client.StatusError
	if !errors.As(err, &se) || !se.Busy() {
		t.Fatalf("overload: got %v, want HTTP 429", err)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("429 without Retry-After: %+v", se)
	}

	release()
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted request failed: %v", err)
		}
	}
}

// TestServerTransformMatchesLocal compares a served transform to the
// local TransformedSource of a local report.
func TestServerTransformMatchesLocal(t *testing.T) {
	gen := suite.Generate("trfd", 1)
	prog := ipcp.MustLoad(gen.Source)
	wantSrc, wantN, err := prog.TransformedSource(prog.Analyze(e2eConfig))
	if err != nil {
		t.Fatal(err)
	}

	_, c := startServer(t, server.Config{Workers: 2})
	resp, err := c.Transform(context.Background(), server.TransformRequest{
		Source: gen.Source, Program: "trfd", Config: server.ConfigOf(e2eConfig),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != wantSrc || resp.Substituted != wantN {
		t.Fatalf("served transform diverges: %d substitutions, want %d", resp.Substituted, wantN)
	}
}

// TestServerMatrixMatchesLocal compares the served configuration sweep
// to a local AnalyzeMatrix over the same generated program.
func TestServerMatrixMatchesLocal(t *testing.T) {
	gen := suite.Generate("trfd", 1)
	prog := ipcp.MustLoad(gen.Source)
	want := prog.AnalyzeMatrix(ipcp.FullMatrix(), 1)
	normalize(want...)

	_, c := startServer(t, server.Config{Workers: 2})
	resp, err := c.Matrix(context.Background(), "trfd", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Reports) != len(want) || len(resp.Configs) != len(want) {
		t.Fatalf("served %d reports / %d configs, want %d", len(resp.Reports), len(resp.Configs), len(want))
	}
	normalize(resp.Reports...)
	for i := range want {
		if !reflect.DeepEqual(resp.Reports[i], want[i]) {
			t.Fatalf("matrix report %d diverges from local AnalyzeMatrix", i)
		}
	}
}

// TestServerShutdownDrains holds a request in flight, shuts the server
// down concurrently, and requires the request to finish successfully
// and later admissions to be refused.
func TestServerShutdownDrains(t *testing.T) {
	gen := suite.Random(6, 6)
	s, c, entered, release := gatedServer(t, server.Config{Workers: 1})

	req := server.AnalyzeRequest{Source: gen.Source, Program: "randp", Config: server.ConfigOf(e2eConfig)}
	results := make(chan error, 1)
	go func() { _, err := c.Analyze(context.Background(), req); results <- err }()
	<-entered

	shutdown := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdown <- s.Shutdown(ctx)
	}()
	time.Sleep(10 * time.Millisecond) // let drain begin
	release()

	if err := <-results; err != nil {
		t.Fatalf("in-flight request not drained: %v", err)
	}
	if err := <-shutdown; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	_, err := c.Analyze(context.Background(), req)
	var se *client.StatusError
	if !errors.As(err, &se) || se.Code != 503 {
		t.Fatalf("post-shutdown request: got %v, want HTTP 503", err)
	}
}

// TestServerBadRequests pins the 4xx mapping: malformed body, unknown
// jump flavor, source that does not parse, unknown matrix program.
func TestServerBadRequests(t *testing.T) {
	_, c := startServer(t, server.Config{Workers: 1})
	cases := []struct {
		name string
		call func() error
		code int
	}{
		{"unknown jump", func() error {
			_, err := c.Analyze(context.Background(), server.AnalyzeRequest{
				Source: "      PROGRAM P\n      END\n", Config: server.ConfigRequest{Jump: "quadratic"},
			})
			return err
		}, 400},
		{"unparsable source", func() error {
			_, err := c.Analyze(context.Background(), server.AnalyzeRequest{Source: "not fortran"})
			return err
		}, 400},
		{"unknown program", func() error {
			_, err := c.Matrix(context.Background(), "nonesuch", 1)
			return err
		}, 404},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			var se *client.StatusError
			if !errors.As(err, &se) || se.Code != tc.code {
				t.Fatalf("got %v, want HTTP %d", err, tc.code)
			}
		})
	}
}

// TestServerRejectsDeepNesting: a source nested past the parser's bound
// is a 400 naming the nesting, and the server goes on answering.
func TestServerRejectsDeepNesting(t *testing.T) {
	_, c := startServer(t, server.Config{Workers: 1})
	n := parser.MaxNesting + 1
	deep := "PROGRAM P\n  INTEGER X\n  X = " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "\nEND\n"
	_, err := c.Analyze(context.Background(), server.AnalyzeRequest{Source: deep})
	var se *client.StatusError
	if !errors.As(err, &se) || se.Code != 400 || !strings.Contains(se.Message, "nesting deeper than") {
		t.Fatalf("over-deep source: got %v, want HTTP 400 naming the nesting", err)
	}
	if _, err := c.Analyze(context.Background(), server.AnalyzeRequest{Source: suite.Random(1, 4).Source}); err != nil {
		t.Fatalf("request after the rejected one: %v", err)
	}
}

// TestServerBoundsErrorBody: a source with 20000 bad lines gets a 400
// whose body stays under 4 KB; the front end records at most ten
// errors and a "too many errors" entry.
func TestServerBoundsErrorBody(t *testing.T) {
	s, _ := startServer(t, server.Config{Workers: 1})
	body, err := json.Marshal(server.AnalyzeRequest{
		Source: "PROGRAM P\n" + strings.Repeat("  X = = 1\n", 20000) + "END\n",
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest || rec.Body.Len() >= 4096 || !strings.Contains(rec.Body.String(), "too many errors") {
		t.Fatalf("got %d with a %d-byte body, want 400 under 4 KB ending in too many errors:\n%.300s",
			rec.Code, rec.Body.Len(), rec.Body.String())
	}
}

// TestClientReadyAndHealth exercises the liveness plumbing end to end.
func TestClientReadyAndHealth(t *testing.T) {
	s, c := startServer(t, server.Config{Workers: 1})
	if err := c.Ready(context.Background()); err != nil {
		t.Fatalf("ready server reported not ready: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	err := c.Ready(context.Background())
	var se *client.StatusError
	if !errors.As(err, &se) || se.Code != 503 {
		t.Fatalf("draining server: got %v, want HTTP 503", err)
	}
}

// TestServerDoublingChain posts the d = 40 doubling chain to
// /v1/analyze: an 865-byte source whose jump function is a tree of 2^40
// leaves but a DAG of 40 nodes. The worker must answer 200 with the
// local Analyze's report, SINK's formal the constant 2^40.
func TestServerDoublingChain(t *testing.T) {
	src := suite.DoublingChain(40)
	want := ipcp.MustLoad(src).Analyze(e2eConfig)
	normalize(want)
	if v, ok := want.ConstantValue("SINK", "M"); !ok || v != 1<<40 {
		t.Fatalf("local Analyze: SINK's M = %d (constant %v), want 2^40", v, ok)
	}
	_, c := startServer(t, server.Config{Workers: 1})
	resp, err := c.Analyze(context.Background(), server.AnalyzeRequest{
		Source:  src,
		Program: "chain",
		Config:  server.ConfigOf(e2eConfig),
	})
	if err != nil {
		t.Fatal(err)
	}
	normalize(resp.Report)
	if !reflect.DeepEqual(resp.Report, want) {
		t.Fatal("served report diverges from local Analyze")
	}
}
