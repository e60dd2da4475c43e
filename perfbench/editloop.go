package main

import (
	"fmt"
	"os"
	"path/filepath"

	"ipcp"
	"ipcp/internal/core"
	"ipcp/internal/core/jump"
	"ipcp/internal/incr"
	"ipcp/internal/mf/parser"
	"ipcp/internal/mf/sema"
	"ipcp/internal/summary"
	"ipcp/internal/wal"
)

// edit-loop is the program-database loop: one op is one `ipcp
// -cache-dir` invocation run in process — open the durable cache,
// load the snapshot, load the next edited doduc source, analyze it
// incrementally under the CLI defaults, save the snapshot chain, close
// the cache. The front end, incr, summary and wal do most of the work;
// core re-derives only the edit's cone. The cache directory lives in
// the checkout's build directory, so its filesystem is whatever the
// checkout sits on; every run prints which.

// coreCLIConfig is cliConfig as the internal packages spell it.
var coreCLIConfig = core.Config{Jump: jump.PassThrough, ReturnJFs: true, MOD: true}

type editLoop struct {
	scale, edits int
	work         string

	chain editChain
	refs  []*ipcp.Report
	props []string

	base, dir, snapPath string
	fsFacts             string
	reps                int
	step                int

	// Over every op after set-up: edits made and procedures reanalyzed.
	ops, reanalyzed int64

	// Traced-op tallies.
	acc   reportTally
	tally struct {
		memGets, diskPuts, diskPutBytes int64
		diskGets, diskHits              int64
		chainAppended, chainFull        int64
		reanalyzed, visited             int64
	}
}

func (w *editLoop) callers() int       { return 1 }
func (w *editLoop) cacheFacts() string { return w.fsFacts }

func (w *editLoop) prepare(seed int64) error {
	chain, err := genEdit(seed, w.scale, w.edits)
	if err != nil {
		return err
	}
	w.chain = chain
	w.refs = make([]*ipcp.Report, len(chain.sources))
	if err := parallel(len(chain.sources), func(i int) error {
		rep, err := scratchReference(chain.sources[i], cliConfig)
		w.refs[i] = rep
		return err
	}); err != nil {
		return fmt.Errorf("edit-loop reference: %w", err)
	}
	prog, err := ipcp.Load(chain.sources[0])
	if err != nil {
		return err
	}
	st := prog.Stats()
	var poly reportTally
	poly.add(prog.Analyze(table2Configs[0]))
	w.props = []string{
		fmt.Sprintf("corpus programs=1 (%s at scale %d) lines=%d procedures=%d", editProgram, w.scale, st.Lines, st.Procedures),
		fmt.Sprintf("polynomial-flavor jump functions=%d genuinely_polynomial=%d share=%.4f",
			poly.jfs(), poly.shape.Polynomial, poly.polyShare()),
	}
	w.base = filepath.Join(w.work, fmt.Sprintf("editloop-%d", os.Getpid()))
	if err := os.MkdirAll(w.base, 0o755); err != nil {
		return err
	}
	spread := "yes"
	if err := spreadSubdirs(w.base); err != nil {
		spread = "no (" + err.Error() + ")"
	}
	w.fsFacts = fmt.Sprintf("cache_dir=%s fs=%s subdirs_spread=%s", w.base, fsType(w.base), spread)
	return nil
}

func (w *editLoop) properties() []string {
	return append(w.props,
		fmt.Sprintf("edits share=1 (every op loads the next source of a %d-edit one-literal chain, walked forward and back); mean reanalyzed per edit=%.3f over %d ops",
			w.edits, ratio(w.reanalyzed, w.ops), w.ops),
		"batches none (in-process calls only)",
	)
}

// setup is the first, cold -cache-dir run: it fills a fresh cache and
// writes the first snapshot.
func (w *editLoop) setup() (func() error, error) {
	w.reps++
	// The process id in the name varies where a spreading filesystem
	// places the directory from run to run (see spreadSubdirs).
	w.dir = filepath.Join(w.base, fmt.Sprintf("cache%d-%d", os.Getpid(), w.reps))
	w.snapPath = filepath.Join(w.dir, "snapshot-"+ipcp.FlavorCacheKey(cliConfig)[:16]+".snap")
	w.step = 1
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return nil, err
	}
	rep, err := w.publicOp(w.chain.sources[0])
	return func() error { return sameReport(rep, w.refs[0]) }, err
}

// teardown keeps each set-up's cache directory until the run ends:
// the files a deletion frees slow the next creates in the same block
// group (see spreadSubdirs), so no set-up, warm-up or timed op follows
// one.
func (w *editLoop) teardown(final bool) {
	if final {
		os.RemoveAll(w.base)
	}
}

// editOut is one op's report and the index of the source it analyzed.
type editOut struct {
	rep *ipcp.Report
	idx int
}

func (w *editLoop) op(c opCtx) (any, error) {
	idx := w.chain.at(w.step)
	w.step++
	var (
		rep *ipcp.Report
		err error
	)
	if c.t == nil {
		rep, err = w.publicOp(w.chain.sources[idx])
	} else {
		rep, err = w.tracedOp(c, w.chain.sources[idx])
	}
	if err != nil {
		return nil, err
	}
	w.ops++
	if rep.Incremental != nil {
		w.reanalyzed += int64(rep.Incremental.Reanalyzed)
	}
	return editOut{rep, idx}, nil
}

func (w *editLoop) check(out any) error {
	o := out.(editOut)
	return sameReport(o.rep, w.refs[o.idx])
}

// publicOp is one `ipcp -cache-dir DIR` run through the public API,
// step for step as cmd/ipcp performs it.
func (w *editLoop) publicOp(src string) (*ipcp.Report, error) {
	cache, _, err := ipcp.NewDurableCache(ipcp.DurableCacheOptions{Dir: w.dir})
	if err != nil {
		return nil, err
	}
	prev, err := ipcp.LoadSnapshot(w.snapPath, cache)
	if err != nil {
		prev = nil // no snapshot yet: a cold run
	}
	prog, err := ipcp.Load(src)
	if err != nil {
		cache.Close()
		return nil, err
	}
	rep, snap := prog.AnalyzeIncremental(cliConfig, prev, cache)
	if _, err := snap.SaveChain(w.snapPath); err != nil {
		cache.Close()
		return nil, err
	}
	return rep, cache.Close()
}

// tracedOp is publicOp built from the internal entry points the public
// API calls — the same store stack NewDurableCache builds, with a
// timing wrapper around each tier — so every layer gets its own span.
func (w *editLoop) tracedOp(c opCtx, src string) (*ipcp.Report, error) {
	t := c.t
	s := t.enter("wal.open", c.root, c.id)
	disk, err := summary.NewDiskStore(w.dir)
	if err != nil {
		return nil, err
	}
	mem := summary.NewMemStore(0)
	j, err := wal.Open(w.dir, wal.Options{Sync: wal.SyncRotate})
	if err != nil {
		return nil, err
	}
	store := summary.NewDurableTieredStore(j, newTimedStore(t, "summary.mem", mem, false), newTimedStore(t, "summary.disk", disk, true))
	if _, err := summary.RecoverJournal(j, store); err != nil {
		j.Close()
		return nil, err
	}
	t.finish(s)

	s = t.enter("summary.snapshot_load", c.root, c.id)
	prev, err := summary.LoadSnapshotFile(w.snapPath)
	if err != nil {
		prev = nil
	}
	t.finish(s)

	s = t.enter("parser", c.root, c.id)
	file, err := parser.Parse(src)
	t.finish(s)
	if err != nil {
		store.Close()
		return nil, err
	}
	s = t.enter("sema", c.root, c.id)
	sp, err := sema.Analyze(file)
	t.finish(s)
	if err != nil {
		store.Close()
		return nil, err
	}

	s = t.enter("incr", c.root, c.id)
	res, snap, st, err := incr.NewEngine(newTimedStore(t, "summary", store, false)).Analyze(sp, coreCLIConfig, prev)
	t.finish(s)
	if err != nil {
		store.Close()
		return nil, err
	}

	s = t.enter("summary.chain_save", c.root, c.id)
	cs, err := summary.SaveSnapshotChain(w.snapPath, snap, summary.DeltaPolicy{})
	t.finish(s)
	if err != nil {
		store.Close()
		return nil, err
	}

	s = t.enter("wal.close", c.root, c.id)
	err = store.Close()
	t.finish(s)
	if err != nil {
		return nil, err
	}

	rep := reportOf(cliConfig, res)
	rep.Incremental = &ipcp.IncrementalStats{TotalProcedures: st.TotalProcs, Reanalyzed: st.Reanalyzed, Reused: st.Reused}
	w.acc.add(rep)
	mst, ds := mem.Stats(), disk.Stats()
	w.tally.memGets += mst.Hits + mst.Misses
	w.tally.diskPuts += ds.Puts
	w.tally.diskPutBytes += ds.PutBytes
	w.tally.diskGets += ds.Hits + ds.Misses
	w.tally.diskHits += ds.Hits
	w.tally.chainAppended += int64(cs.AppendedBytes)
	w.tally.chainFull += int64(cs.FullBytes)
	w.tally.reanalyzed += int64(st.Reanalyzed)
	w.tally.visited += st.WorklistVisited
	return rep, nil
}

func (w *editLoop) layers(t *tracer, traced int) map[string]float64 {
	var parse, sem, incrSelf, open, closeNS, load, save, get, put int64
	for _, spans := range t.byOp() {
		o := index(spans)
		parse += sumDur(o.named("parser"))
		sem += sumDur(o.named("sema"))
		for _, s := range o.named("incr") {
			incrSelf += o.self(s)
		}
		open += sumDur(o.named("wal.open"))
		closeNS += sumDur(o.named("wal.close"))
		load += sumDur(o.named("summary.snapshot_load"))
		save += sumDur(o.named("summary.chain_save"))
		get += sumDur(o.named("summary.get"))
		put += sumDur(o.named("summary.put")) + sumDur(o.named("summary.disk.put"))
	}
	m := map[string]float64{
		"parser.ms_per_op":                perOpMS(parse, traced),
		"sema.ms_per_op":                  perOpMS(sem, traced),
		"incr.self_ms_per_op":             perOpMS(incrSelf-w.acc.propagateNS, traced),
		"incr.reanalyzed_per_op":          perOp(w.tally.reanalyzed, traced),
		"incr.worklist_visited_per_op":    perOp(w.tally.visited, traced),
		"summary.gets_per_op":             perOp(w.tally.memGets, traced),
		"summary.get_ms_per_op":           perOpMS(get, traced),
		"summary.disk_hit_ratio":          ratio(w.tally.diskHits, w.tally.diskGets),
		"summary.puts_per_op":             perOp(w.tally.diskPuts, traced),
		"summary.put_ms_per_op":           perOpMS(put, traced),
		"summary.put_kb_per_op":           perOp(w.tally.diskPutBytes, traced) / 1024,
		"summary.snapshot_load_ms_per_op": perOpMS(load, traced),
		"summary.chain_save_ms_per_op":    perOpMS(save, traced),
		"summary.chain_delta_ratio":       ratio(w.tally.chainAppended, w.tally.chainFull),
		"wal.open_ms_per_op":              perOpMS(open, traced),
		"wal.close_ms_per_op":             perOpMS(closeNS, traced),
	}
	w.acc.metrics(m, traced)
	return m
}
