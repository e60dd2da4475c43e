package ipcp_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ipcp"
	"ipcp/internal/mf/ast"
	"ipcp/internal/mf/parser"
	"ipcp/internal/suite"
)

// This file is the differential proof of the incremental engine's
// correctness guarantee: for any program, any edit history, and any
// configuration, AnalyzeIncremental produces a Report
// reflect.DeepEqual to a from-scratch Analyze of the same program —
// summaries only short-circuit derivations whose outcome is already
// known, they never change it.

// editProgram applies one deterministic "edit" to MiniFortran source:
// it picks an integer literal inside some unit's executable body
// (choice driven by pick) and changes its value. It returns the new
// source and false when the program has no body literals to edit.
func editProgram(t testing.TB, src string, pick int) (string, bool) {
	return editProgramIn(t, src, "", pick)
}

// editProgramIn is editProgram restricted to the named unit ("" means
// any unit).
func editProgramIn(t testing.TB, src string, unit string, pick int) (string, bool) {
	t.Helper()
	file, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("editProgram: source no longer parses: %v", err)
	}
	total := 0
	for _, u := range file.Units {
		if unit != "" && u.Name != unit {
			continue
		}
		ast.RewriteExprs(u, func(e ast.Expr) ast.Expr {
			if _, ok := e.(*ast.IntLit); ok {
				total++
			}
			return e
		})
	}
	if total == 0 {
		return "", false
	}
	if pick < 0 { // fuzzed picks may be negative
		pick = -pick
	}
	target := pick % total
	delta := int64(1 + pick%5)
	seen := 0
	for _, u := range file.Units {
		if unit != "" && u.Name != unit {
			continue
		}
		ast.RewriteExprs(u, func(e ast.Expr) ast.Expr {
			if lit, ok := e.(*ast.IntLit); ok {
				if seen == target {
					lit.Value += delta
				}
				seen++
			}
			return e
		})
	}
	return ast.Format(file), true
}

// incrementalConfigs is the configuration grid the incremental
// differential suite sweeps: all four jump-function flavors at full
// precision, a no-return-JF/no-MOD row, a complete-propagation row
// (whose post-DCE re-propagations must run fresh), and a
// dependence-solver row.
func incrementalConfigs() []ipcp.Config {
	cfgs := make([]ipcp.Config, 0, 7)
	for _, j := range ipcp.JumpFunctions {
		cfgs = append(cfgs, ipcp.Config{Jump: j, ReturnJumpFunctions: true, MOD: true})
	}
	return append(cfgs,
		ipcp.Config{Jump: ipcp.PassThrough},
		ipcp.Config{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true, Complete: true},
		ipcp.Config{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true, DependenceSolver: true},
	)
}

// normalizeIncrementalReports clears the fields that legitimately
// differ between scratch and incremental runs: the run bookkeeping
// (Incremental), the echoed worker knob, and wall-clock Nanos. Stage 3
// solves every run from the initial VAL sets, so the solver-effort
// counters must match too.
func normalizeIncrementalReports(reps ...*ipcp.Report) {
	for _, r := range reps {
		r.Incremental = nil
	}
	normalizeReports(reps)
}

// TestDeterminismIncrementalEdits chains random single-procedure edits
// over the random-program corpus and asserts, at every step of every
// chain, that the incremental Report equals the from-scratch one —
// sequentially and on 8 workers — for every configuration in the grid.
func TestDeterminismIncrementalEdits(t *testing.T) {
	nseeds := determinismSeeds(t)
	cfgs := incrementalConfigs()
	for seed := 0; seed < nseeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			size := 2 + seed%9
			gen := suite.Random(int64(seed), size)
			srcs := []string{gen.Source}
			for e := 0; e < 2; e++ {
				next, ok := editProgram(t, srcs[len(srcs)-1], seed*31+e*7+1)
				if !ok {
					break
				}
				srcs = append(srcs, next)
			}
			for ci, cfg := range cfgs {
				cache := ipcp.NewMemoryCache()
				var snap *ipcp.Snapshot
				for step, src := range srcs {
					prog, err := ipcp.Load(src)
					if err != nil {
						t.Fatalf("seed %d step %d: edited program invalid: %v", seed, step, err)
					}
					seqCfg := cfg
					seqCfg.Workers = 1
					scratch := prog.Analyze(seqCfg)
					incSeq, nextSnap := prog.AnalyzeIncremental(seqCfg, snap, cache)
					parCfg := cfg
					parCfg.Workers = 8
					incPar, _ := prog.AnalyzeIncremental(parCfg, snap, cache)

					st := incSeq.Incremental
					if st == nil || st.TotalProcedures != st.Reanalyzed+st.Reused {
						t.Fatalf("seed %d config %d step %d: inconsistent incremental stats %+v",
							seed, ci, step, st)
					}
					normalizeIncrementalReports(scratch, incSeq, incPar)
					if !reflect.DeepEqual(scratch, incSeq) {
						t.Fatalf("seed %d config %+v step %d: incremental report diverges from scratch\nscratch: %+v\nincr:    %+v",
							seed, cfg, step, scratch, incSeq)
					}
					if !reflect.DeepEqual(scratch, incPar) {
						t.Fatalf("seed %d config %+v step %d: parallel incremental report diverges from scratch",
							seed, cfg, step)
					}
					snap = nextSnap
				}
			}
		})
	}
}

// TestDeterminismIncrementalUnchanged pins the no-op contract: a
// re-run over unchanged source reports zero re-analyzed procedures and
// a 100% cache hit rate, while the Report still matches scratch.
func TestDeterminismIncrementalUnchanged(t *testing.T) {
	cfgs := incrementalConfigs()
	for _, name := range []string{"ocean", "linpackd", "spec77"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog := ipcp.MustLoad(suite.Generate(name, 2).Source)
			for _, cfg := range cfgs {
				cache := ipcp.NewMemoryCache()
				first, snap := prog.AnalyzeIncremental(cfg, nil, cache)
				if st := first.Incremental; st.Reanalyzed != st.TotalProcedures || st.CacheHits != 0 {
					t.Fatalf("%s %+v: first run expected all-reanalyzed, got %+v", name, cfg, st)
				}
				// nil cache on the re-run: it must follow the snapshot.
				second, _ := prog.AnalyzeIncremental(cfg, snap, nil)
				st := second.Incremental
				if st.Reanalyzed != 0 || st.Reused != st.TotalProcedures {
					t.Fatalf("%s %+v: unchanged re-run re-analyzed %d of %d procedures",
						name, cfg, st.Reanalyzed, st.TotalProcedures)
				}
				if st.CacheHits != st.TotalProcedures || st.CacheMisses != 0 || st.HitRate() != 1.0 {
					t.Fatalf("%s %+v: unchanged re-run hit rate %.2f (%d hits, %d misses)",
						name, cfg, st.HitRate(), st.CacheHits, st.CacheMisses)
				}
				scratch := prog.Analyze(cfg)
				normalizeIncrementalReports(scratch, first, second)
				if !reflect.DeepEqual(scratch, first) || !reflect.DeepEqual(scratch, second) {
					t.Fatalf("%s %+v: incremental reports diverge from scratch", name, cfg)
				}
			}
		})
	}
}

// TestIncrementalSuiteEditSweep runs every suite program through an
// unchanged re-run and a two-edit chain under every configuration in
// the grid, threading one cache and snapshot, and requires each
// incremental Report to be reflect.DeepEqual to the from-scratch one.
// It is the deterministic counterpart of FuzzIncrementalEditChain over
// the suite programs.
func TestIncrementalSuiteEditSweep(t *testing.T) {
	cfgs := incrementalConfigs()
	for _, name := range suite.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			gen := suite.Generate(name, 2)
			// Step 0 is the capture run, step 1 an unchanged re-run, and
			// the remaining steps a chain of single-literal edits.
			srcs := []string{gen.Source, gen.Source}
			src := gen.Source
			for e := 0; e < 2; e++ {
				next, ok := editProgram(t, src, e*13+5)
				if !ok {
					break
				}
				src = next
				srcs = append(srcs, src)
			}
			for _, cfg := range cfgs {
				cache := ipcp.NewMemoryCache()
				var snap *ipcp.Snapshot
				for step, s := range srcs {
					prog := ipcp.MustLoad(s)
					inc, next := prog.AnalyzeIncremental(cfg, snap, cache)
					scratch := prog.Analyze(cfg)
					normalizeIncrementalReports(scratch, inc)
					if !reflect.DeepEqual(scratch, inc) {
						t.Fatalf("%s %+v step %d: incremental report diverges from scratch\nscratch: %+v\nincr:    %+v",
							name, cfg, step, scratch, inc)
					}
					snap = next
				}
			}
		})
	}
}

// TestDeterminismIncrementalPartialReuse edits only the main program —
// which nothing calls, so the backward-invalidation closure is exactly
// {main} — and asserts every other procedure's summary is reused.
func TestDeterminismIncrementalPartialReuse(t *testing.T) {
	gen := suite.Random(1, 8)
	cfg := ipcp.Config{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true}
	cache := ipcp.NewMemoryCache()
	prog := ipcp.MustLoad(gen.Source)
	_, snap := prog.AnalyzeIncremental(cfg, nil, cache)

	edited, ok := editProgramIn(t, gen.Source, "RANDP", 3)
	if !ok {
		t.Fatal("main program has no editable literals")
	}
	prog2 := ipcp.MustLoad(edited)
	rep, _ := prog2.AnalyzeIncremental(cfg, snap, cache)
	st := rep.Incremental
	if st.Reanalyzed != 1 || st.Reused != st.TotalProcedures-1 {
		t.Fatalf("main-only edit should re-analyze exactly 1 of %d procedures, got %+v",
			st.TotalProcedures, st)
	}
	scratch := prog2.Analyze(cfg)
	normalizeIncrementalReports(scratch, rep)
	if !reflect.DeepEqual(scratch, rep) {
		t.Fatal("partial-reuse report diverges from scratch")
	}
}

// TestDeterminismIncrementalConfigIsolation feeds a snapshot taken
// under one configuration to a run under another: the config-key check
// must force a full re-analysis (stale summaries from a different
// flavor would silently corrupt the result), and the outcome must
// still match scratch.
func TestDeterminismIncrementalConfigIsolation(t *testing.T) {
	prog := ipcp.MustLoad(suite.Generate("ocean", 2).Source)
	cache := ipcp.NewMemoryCache()
	a := ipcp.Config{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true}
	b := ipcp.Config{Jump: ipcp.Literal}
	if ipcp.FlavorCacheKey(a) == ipcp.FlavorCacheKey(b) {
		t.Fatal("distinct configurations share a cache key")
	}
	_, snapA := prog.AnalyzeIncremental(a, nil, cache)
	repB, _ := prog.AnalyzeIncremental(b, snapA, cache)
	if st := repB.Incremental; st.Reanalyzed != st.TotalProcedures {
		t.Fatalf("config change must invalidate everything, got %+v", st)
	}
	scratch := prog.Analyze(b)
	normalizeIncrementalReports(scratch, repB)
	if !reflect.DeepEqual(scratch, repB) {
		t.Fatal("cross-config incremental report diverges from scratch")
	}
}

// TestIncrementalDiskCache round-trips the whole program database
// through disk: a cache directory plus a snapshot file, reopened cold
// (fresh store handles, as a new process would), must yield a
// 100%-hit unchanged re-run and a scratch-equal report after an edit.
func TestIncrementalDiskCache(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "snapshot.ipcsnap")
	gen := suite.Random(7, 6)
	cfg := ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true}

	cache := openCache(t, filepath.Join(dir, "cache"))
	prog := ipcp.MustLoad(gen.Source)
	_, snap := prog.AnalyzeIncremental(cfg, nil, cache)
	if err := snap.Save(snapPath); err != nil {
		t.Fatal(err)
	}

	// "New process": reopen everything from disk.
	cache2 := openCache(t, filepath.Join(dir, "cache"))
	loaded, err := ipcp.LoadSnapshot(snapPath, cache2)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Procedures() != snap.Procedures() {
		t.Fatalf("snapshot round-trip lost procedures: %d != %d", loaded.Procedures(), snap.Procedures())
	}
	rerun, _ := prog.AnalyzeIncremental(cfg, loaded, cache2)
	if st := rerun.Incremental; st.Reanalyzed != 0 || st.HitRate() != 1.0 {
		t.Fatalf("disk re-run expected full reuse, got %+v", st)
	}

	edited, ok := editProgram(t, gen.Source, 11)
	if !ok {
		t.Fatal("no editable literal")
	}
	prog2 := ipcp.MustLoad(edited)
	rep, snap2 := prog2.AnalyzeIncremental(cfg, loaded, cache2)
	scratch := prog2.Analyze(cfg)
	normalizeIncrementalReports(scratch, rep)
	if !reflect.DeepEqual(scratch, rep) {
		t.Fatal("disk-cached incremental report diverges from scratch")
	}
	if s := cache2.Stats(); s.Hits == 0 {
		t.Fatalf("disk cache recorded no hits: %+v", s)
	}

	// The post-edit snapshot replaces the file; reloaded, it proves the
	// edited program unchanged.
	if err := snap2.Save(snapPath); err != nil {
		t.Fatal(err)
	}
	reloaded, err := ipcp.LoadSnapshot(snapPath, cache2)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Procedures() != snap2.Procedures() {
		t.Fatalf("post-edit snapshot round-trip lost procedures: %d != %d", reloaded.Procedures(), snap2.Procedures())
	}
	again, _ := prog2.AnalyzeIncremental(cfg, reloaded, cache2)
	if st := again.Incremental; st.Reanalyzed != 0 || st.HitRate() != 1.0 {
		t.Fatalf("re-run against the saved post-edit snapshot expected full reuse, got %+v", st)
	}
}

// deepProgram returns a program whose procedure DEEP runs n statements
// J = J + 1 over its formal and passes J to SINK; under polynomial jump
// functions J's return jump function nests n operators deep.
func deepProgram(n int) string {
	var b strings.Builder
	b.WriteString("PROGRAM MAIN\n  INTEGER N\n  N = 1\n  CALL DEEP(N)\nEND\n\n")
	b.WriteString("SUBROUTINE DEEP(J)\n  INTEGER J\n")
	for i := 0; i < n; i++ {
		b.WriteString("  J = J + 1\n")
	}
	b.WriteString("  CALL SINK(J)\n  RETURN\nEND\n\n")
	b.WriteString("SUBROUTINE SINK(M)\n  INTEGER M, R\n  R = M\n  RETURN\nEND\n")
	return b.String()
}

// TestIncrementalSkipsUndecodableRecord analyzes deepProgram(5000)
// under polynomial jump functions through a cache directory, then
// re-runs it unchanged. DEEP's record nests deeper than the decoder
// accepts, so it is never stored: the re-run makes no put, counts no
// store error, and still equals scratch. DEEP itself is re-derived on
// every run.
func TestIncrementalSkipsUndecodableRecord(t *testing.T) {
	cfg := ipcp.Config{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true, Workers: 1}
	prog := ipcp.MustLoad(deepProgram(5000))
	cache := openCache(t, t.TempDir())
	_, snap := prog.AnalyzeIncremental(cfg, nil, cache)
	before := cache.Stats()
	rerun, _ := prog.AnalyzeIncremental(cfg, snap, cache)
	after := cache.Stats()
	if puts := after.Puts - before.Puts; puts != 0 {
		t.Errorf("unchanged re-run stored %d records", puts)
	}
	if after.Errors != 0 || rerun.Incremental.StoreErr != nil {
		t.Errorf("store errors: cache %d, report %v", after.Errors, rerun.Incremental.StoreErr)
	}
	t.Logf("re-run: %+v", *rerun.Incremental)
	scratch := prog.Analyze(cfg)
	normalizeIncrementalReports(scratch, rerun)
	if !reflect.DeepEqual(scratch, rerun) {
		t.Fatal("re-run diverges from scratch")
	}
}

// TestIncrementalBoundedCache checks that eviction degrades gracefully:
// a cache too small for the program stays correct (evicted summaries
// are recomputed) and reports evictions in its stats.
func TestIncrementalBoundedCache(t *testing.T) {
	gen := suite.Random(3, 9)
	cfg := ipcp.Config{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true}
	cache := ipcp.NewBoundedMemoryCache(2)
	prog := ipcp.MustLoad(gen.Source)
	_, snap := prog.AnalyzeIncremental(cfg, nil, cache)
	rep, _ := prog.AnalyzeIncremental(cfg, snap, cache)
	scratch := prog.Analyze(cfg)
	normalizeIncrementalReports(scratch, rep)
	if !reflect.DeepEqual(scratch, rep) {
		t.Fatal("bounded-cache incremental report diverges from scratch")
	}
	if s := cache.Stats(); s.Evictions == 0 {
		t.Fatalf("2-entry cache over a %d-procedure program never evicted: %+v",
			len(prog.Units()), s)
	}
}
