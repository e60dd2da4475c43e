package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"ipcp"
	"ipcp/internal/fleet"
	"ipcp/internal/server"
	"ipcp/internal/server/client"
)

// serve-fleet is the resident path `ipcp -server a.f b.f …` and CI jobs
// hit: a 2-shard fleet started in process (fleet.Config.Start with
// in-process servers, as internal/fleet's own benchmark does, so no
// extra processes compete for the two CPUs), each shard on the default
// server.Config — a memory cache and resident snapshots. One op is one
// POST /v1/batch with one item per lineage the client owns; each item
// is either the lineage's unchanged source (a warm, full-hit
// re-analysis) or its next edit (an incremental re-analysis).

const fleetShards = 2

var cliWire = server.ConfigOf(cliConfig)

type serveFleet struct {
	t             *tracer
	scale, chainN int

	in    fleetInputs
	refs  [][][]*ipcp.Report // [client][lineage][source]
	props []string

	fl       *fleet.Fleet
	edge     *http.Server
	edgeDone chan error
	clients  []*client.Client
	pos      [][]int // [client][lineage] palindrome step of the last source sent
	next     []int   // [client] plan index of the next batch

	mu sync.Mutex
	// Over every batch after set-up.
	batches, items, edited, reanalyzedEdited, reanalyzedSame int64
	shardItems                                               [fleetShards]int64
	// Traced-batch tallies, and the shards' counters when set-up ended.
	acc                 reportTally
	reanalyzed, visited int64
	base                shardCounters
}

func (w *serveFleet) callers() int       { return fleetClients }
func (w *serveFleet) cacheFacts() string { return "" }

func (w *serveFleet) prepare(seed int64) error {
	in, err := genFleet(seed, w.scale, w.chainN)
	if err != nil {
		return err
	}
	w.in = in
	type job struct{ c, l, s int }
	var jobs []job
	w.refs = make([][][]*ipcp.Report, len(in.clients))
	for c, ls := range in.clients {
		w.refs[c] = make([][]*ipcp.Report, len(ls))
		for l, lin := range ls {
			w.refs[c][l] = make([]*ipcp.Report, len(lin.chain.sources))
			for s := range lin.chain.sources {
				jobs = append(jobs, job{c, l, s})
			}
		}
	}
	err = parallel(len(jobs), func(i int) error {
		j := jobs[i]
		lin := in.clients[j.c][j.l]
		rep, err := scratchReference(lin.chain.sources[j.s], cliConfig)
		if err == nil {
			rep, err = roundTrip(rep)
		}
		if err != nil {
			return fmt.Errorf("serve-fleet reference %s (%s) source %d: %w", lin.name, lin.program, j.s, err)
		}
		w.refs[j.c][j.l][j.s] = rep
		return nil
	})
	if err != nil {
		return err
	}
	var lines, procs, lineages int
	var poly reportTally
	var routed [fleetShards]int
	for _, ls := range in.clients {
		for _, lin := range ls {
			prog, err := ipcp.Load(lin.chain.sources[0])
			if err != nil {
				return err
			}
			st := prog.Stats()
			lines += st.Lines
			procs += st.Procedures
			lineages++
			poly.add(prog.Analyze(table2Configs[0]))
			routed[fleet.RouteAnalyze(lin.name, cliConfig, fleetShards)]++
		}
	}
	w.props = []string{
		fmt.Sprintf("corpus lineages=%d (suite at scale %d split between %d clients, plus %d random programs of %d-%d lines each; %d random candidates skipped because the oracle rejected a scratch analysis in their edit chain) lines=%d procedures=%d",
			lineages, w.scale, fleetClients, fleetRandomPerCaller, fleetRandomMinLines, fleetRandomMaxLines, in.skipped, lines, procs),
		fmt.Sprintf("polynomial-flavor jump functions=%d genuinely_polynomial=%d share=%.4f",
			poly.jfs(), poly.shape.Polynomial, poly.polyShare()),
		fmt.Sprintf("routing lineages per shard=%v (rendezvous hashing of the fixed lineage names)", routed),
	}
	return nil
}

func (w *serveFleet) properties() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	perShard := make([]string, fleetShards)
	for i, n := range w.shardItems {
		perShard[i] = fmt.Sprintf("%.3f", ratio(n, w.batches))
	}
	return append(w.props,
		fmt.Sprintf("edits share=%.4f (fixed; the seed picks which items) measured=%.4f over %d items; mean reanalyzed per edited item=%.3f, per unchanged item=%.3f",
			fleetEditShare, ratio(w.edited, w.items), w.items, ratio(w.reanalyzedEdited, w.edited), ratio(w.reanalyzedSame, w.items-w.edited)),
		fmt.Sprintf("batches items_per_batch=%.3f items_per_shard_per_batch=[%s] over %d batches",
			ratio(w.items, w.batches), strings.Join(perShard, " "), w.batches),
	)
}

// startShard runs shard i as an in-process server behind a loopback
// listener.
func (w *serveFleet) startShard(i int) (*fleet.WorkerHandle, error) {
	s, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = s.Handler()
	if w.t != nil {
		h = traceHandler(w.t, fmt.Sprintf("server.shard%d", i), h)
	}
	hs := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(l) }()
	return &fleet.WorkerHandle{
		Addr: l.Addr().String(),
		Stop: func(ctx context.Context) error {
			err := hs.Shutdown(ctx)
			s.Shutdown(ctx)
			return err
		},
		Kill: func() { hs.Close() },
		Done: done,
	}, nil
}

// setup starts the fleet and its edge listener, then sends every
// lineage's first, cold request: one batch per client, concurrently.
func (w *serveFleet) setup() (func() error, error) {
	fl, err := fleet.New(fleet.Config{Workers: fleetShards, Start: w.startShard})
	if err != nil {
		return nil, err
	}
	w.fl = fl
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fl.Start(ctx); err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = fl.Handler()
	if w.t != nil {
		h = traceHandler(w.t, "fleet.edge", h)
	}
	w.edge = &http.Server{Handler: h}
	w.edgeDone = make(chan error, 1)
	go func() { w.edgeDone <- w.edge.Serve(l) }()

	w.clients = make([]*client.Client, fleetClients)
	w.pos = make([][]int, fleetClients)
	w.next = make([]int, fleetClients)
	results := make([][]server.BatchItemResult, fleetClients)
	errs := make([]error, fleetClients)
	var wg sync.WaitGroup
	for c := range w.clients {
		w.clients[c] = client.New(l.Addr().String())
		w.pos[c] = make([]int, len(w.in.clients[c]))
		req, _ := w.batch(c, 0)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c], errs[c] = w.clients[c].Batch(ctx, req)
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return func() error {
		for c := range results {
			if err := w.checkItems(c, results[c], make([]int, len(results[c]))); err != nil {
				return err
			}
		}
		if w.t != nil {
			var err error
			w.base, err = w.shardCounters()
			return err
		}
		return nil
	}, nil
}

func (w *serveFleet) teardown(bool) {
	if w.fl == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// The shard clients share the default transport. Closing its idle
	// connections first, spare dials included, keeps each server's
	// Shutdown from polling on connections that never sent a request.
	if c, ok := http.DefaultTransport.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
	if w.edge != nil {
		w.edge.Shutdown(ctx)
		<-w.edgeDone
	}
	w.fl.Shutdown(ctx)
	w.fl, w.edge = nil, nil
}

// batch builds client c's request for plan bits: every lineage the
// client owns, advanced to its next edit where the bit is set.
func (w *serveFleet) batch(c int, bits uint64) (server.BatchRequest, []int) {
	ls := w.in.clients[c]
	req := server.BatchRequest{Config: cliWire, Items: make([]server.BatchItem, len(ls))}
	want := make([]int, len(ls))
	for i, lin := range ls {
		if bits&(1<<i) != 0 {
			w.pos[c][i]++
		}
		want[i] = lin.chain.at(w.pos[c][i])
		req.Items[i] = server.BatchItem{Source: lin.chain.sources[want[i]], Program: lin.name}
	}
	return req, want
}

// fleetOut is one batch's results and what they must match.
type fleetOut struct {
	caller  int
	results []server.BatchItemResult
	want    []int // source index per item
	bits    uint64
	traced  bool
}

func (w *serveFleet) op(c opCtx) (any, error) {
	plan := w.in.plan[c.caller]
	bits := plan[w.next[c.caller]%len(plan)]
	w.next[c.caller]++
	req, want := w.batch(c.caller, bits)
	ctx := context.Background()
	var s span
	if c.t != nil {
		s = c.t.start("client.batch", c.root, c.id)
		ctx = withSpan(ctx, c.id, s.ID)
	}
	results, err := w.clients[c.caller].Batch(ctx, req)
	if c.t != nil {
		c.t.finish(s)
	}
	if err != nil {
		return nil, err
	}
	return fleetOut{c.caller, results, want, bits, c.t != nil}, nil
}

// check tallies the batch's input properties and verifies every item.
func (w *serveFleet) check(out any) error {
	o := out.(fleetOut)
	w.tally(o.results, o.bits, o.traced)
	return w.checkItems(o.caller, o.results, o.want)
}

func (w *serveFleet) tally(results []server.BatchItemResult, bits uint64, traced bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.batches++
	for i, r := range results {
		w.items++
		if r.Shard >= 0 && r.Shard < fleetShards {
			w.shardItems[r.Shard]++
		}
		if r.Report == nil {
			continue
		}
		if inc := r.Report.Incremental; inc != nil {
			if bits&(1<<i) != 0 {
				w.reanalyzedEdited += int64(inc.Reanalyzed)
			} else {
				w.reanalyzedSame += int64(inc.Reanalyzed)
			}
			if traced {
				w.reanalyzed += int64(inc.Reanalyzed)
				w.visited += inc.WorklistVisited
			}
		}
		if bits&(1<<i) != 0 {
			w.edited++
		}
		if traced {
			w.acc.add(r.Report)
		}
	}
}

// checkItems verifies every item: served (status 2xx) and equal to the
// reference of the source it carried.
func (w *serveFleet) checkItems(c int, results []server.BatchItemResult, want []int) error {
	if len(results) != len(want) {
		return fmt.Errorf("%d results for %d items", len(results), len(want))
	}
	for i, r := range results {
		lin := w.in.clients[c][i]
		if !r.OK() {
			return fmt.Errorf("%s: status %d: %s", lin.name, r.Status, r.Error)
		}
		if err := sameReport(r.Report, w.refs[c][i][want[i]]); err != nil {
			return fmt.Errorf("%s (%s) source %d: %w", lin.name, lin.program, want[i], err)
		}
	}
	return nil
}

// shardCounters are the shard /metrics counters the per-layer metrics
// use, summed over shards.
type shardCounters struct{ rejected, hits, misses int64 }

func (w *serveFleet) shardCounters() (shardCounters, error) {
	var sc shardCounters
	for _, sh := range w.fl.Shards() {
		resp, err := http.Get("http://" + sh.Addr + "/metrics")
		if err != nil {
			return sc, err
		}
		sc2, err := parseShardCounters(bufio.NewScanner(resp.Body))
		resp.Body.Close()
		if err != nil {
			return sc, err
		}
		sc.rejected += sc2.rejected
		sc.hits += sc2.hits
		sc.misses += sc2.misses
	}
	return sc, nil
}

func parseShardCounters(sc *bufio.Scanner) (shardCounters, error) {
	var out shardCounters
	fields := map[string]*int64{
		"ipcpd_rejected_total":             &out.rejected,
		"ipcpd_summary_cache_hits_total":   &out.hits,
		"ipcpd_summary_cache_misses_total": &out.misses,
	}
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if p := fields[name]; ok && p != nil {
			n, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				return out, fmt.Errorf("metrics %s: %w", name, err)
			}
			*p = int64(n)
		}
	}
	return out, sc.Err()
}

func (w *serveFleet) layers(t *tracer, traced int) map[string]float64 {
	var transport, edgeSelf int64
	var shardNS, shardN [fleetShards]int64
	for _, spans := range t.byOp() {
		o := index(spans)
		edges := o.named("fleet.edge")
		transport += sumDur(o.named("client.batch")) - sumDur(edges)
		for _, e := range edges {
			edgeSelf += o.self(e)
		}
		for i := 0; i < fleetShards; i++ {
			sh := o.named(fmt.Sprintf("server.shard%d", i))
			shardNS[i] += sumDur(sh)
			shardN[i] += int64(len(sh))
		}
	}
	m := map[string]float64{
		"client.transport_ms_per_op": perOpMS(transport, traced),
		"fleet.edge_self_ms_per_op":  perOpMS(edgeSelf, traced),
		"server.request_ms":          perOpMS(shardNS[0]+shardNS[1], int(shardN[0]+shardN[1])),
		"server.shard_skew":          ratio(max(shardN[0], shardN[1]), min(shardN[0], shardN[1])),
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	m["incr.reanalyzed_per_op"] = perOp(w.reanalyzed, traced)
	m["incr.worklist_visited_per_op"] = perOp(w.visited, traced)
	w.acc.metrics(m, traced)
	if now, err := w.shardCounters(); err == nil {
		m["server.rejected_per_op"] = perOp(now.rejected-w.base.rejected, int(w.batches))
		m["server.summary_hit_ratio"] = ratio(now.hits-w.base.hits, now.hits-w.base.hits+now.misses-w.base.misses)
	}
	return m
}
