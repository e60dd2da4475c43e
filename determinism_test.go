package ipcp_test

import (
	"fmt"
	"reflect"
	"testing"

	"ipcp"
	"ipcp/internal/suite"
)

// This file is the differential proof of the analyzer's determinism
// guarantee: for any program and any configuration, the parallel
// pipeline (Config.Workers > 1, plus the matrix-level fan-out of
// AnalyzeMatrix) produces a Report reflect.DeepEqual to the sequential
// reference (Config.Workers == 1, one Analyze per configuration) —
// including the solver-effort counters, not just the CONSTANTS sets.
// Run under -race (scripts/check.sh does) this doubles as the
// shared-state audit of every fan-out path.

// determinismSeeds returns the number of random programs to sweep:
// ≥200 in full mode per the acceptance criteria, fewer under -short.
func determinismSeeds(t *testing.T) int {
	if testing.Short() {
		return 40
	}
	return 200
}

// determinismConfigs is the configuration grid: the full 4-flavor ×
// MOD × return-JF matrix, plus complete-propagation variants across
// the jump-function flavors and the dependence-solver combinations of
// the most precise configuration. The complete-mode rows route the
// whole grid through the pass-manager fixpoint driver.
func determinismConfigs() []ipcp.Config {
	cfgs := ipcp.FullMatrix()
	cfgs = append(cfgs,
		ipcp.Config{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true, Complete: true},
		ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true, Complete: true},
		ipcp.Config{Jump: ipcp.Literal, Complete: true},
		ipcp.Config{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true, DependenceSolver: true},
		ipcp.Config{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true, DependenceSolver: true, Complete: true},
	)
	return cfgs
}

// normalizeReports clears the Report fields that legitimately differ
// between the sequential and parallel runs: the echoed Config.Workers
// knob and the wall-clock Nanos of each pass-trace entry. Everything
// else — the full trace included — must match exactly.
func normalizeReports(reps []*ipcp.Report) {
	for _, r := range reps {
		r.Config.Workers = 0
		for i := range r.Passes {
			r.Passes[i].Nanos = 0
		}
	}
}

// withWorkers returns a copy of the grid with every configuration's
// worker count pinned to n.
func withWorkers(cfgs []ipcp.Config, n int) []ipcp.Config {
	out := make([]ipcp.Config, len(cfgs))
	for i, c := range cfgs {
		out[i] = c
		out[i].Workers = n
	}
	return out
}

func TestDeterminismRandomSuite(t *testing.T) {
	nseeds := determinismSeeds(t)
	cfgs := determinismConfigs()
	for seed := 0; seed < nseeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			size := 2 + seed%9 // programs from ~2 to ~12 procedures
			gen := suite.Random(int64(seed), size)
			prog, err := ipcp.Load(gen.Source)
			if err != nil {
				t.Fatalf("random program %d invalid: %v", seed, err)
			}

			// Sequential reference: one fresh Analyze per configuration,
			// single worker everywhere.
			seq := make([]*ipcp.Report, len(cfgs))
			for i, cfg := range cfgs {
				cfg.Workers = 1
				seq[i] = prog.Analyze(cfg)
			}

			// Parallel run: matrix-level fan-out over cloned IRs, each
			// pipeline itself running on 8 workers. And a second parallel
			// run, so parallel agrees with parallel, not just with the
			// sequential baseline.
			par := prog.AnalyzeMatrix(withWorkers(cfgs, 8), 8)
			par2 := prog.AnalyzeMatrix(withWorkers(cfgs, 8), 8)

			normalizeReports(seq)
			normalizeReports(par)
			normalizeReports(par2)
			for i := range cfgs {
				if !reflect.DeepEqual(seq[i], par[i]) {
					t.Fatalf("seed %d config %+v: parallel report diverges from sequential\nseq: %+v\npar: %+v",
						seed, cfgs[i], seq[i], par[i])
				}
				if !reflect.DeepEqual(par[i], par2[i]) {
					t.Fatalf("seed %d config %+v: two parallel runs disagree", seed, cfgs[i])
				}
			}
		})
	}
}

// TestDeterminismHandBuiltSuite pins the guarantee on the 12 structured
// benchmark programs too — their call-graph shapes (deep pass-through
// chains, initialization routines, skewed procedure sizes) exercise
// wave schedules the random generator rarely produces.
func TestDeterminismHandBuiltSuite(t *testing.T) {
	cfgs := determinismConfigs()
	for _, name := range suite.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			gen := suite.Generate(name, 2)
			prog, err := ipcp.Load(gen.Source)
			if err != nil {
				t.Fatal(err)
			}
			seq := make([]*ipcp.Report, len(cfgs))
			for i, cfg := range cfgs {
				cfg.Workers = 1
				seq[i] = prog.Analyze(cfg)
			}
			par := prog.AnalyzeMatrix(withWorkers(cfgs, 8), 8)
			normalizeReports(seq)
			normalizeReports(par)
			for i := range cfgs {
				if !reflect.DeepEqual(seq[i], par[i]) {
					t.Fatalf("%s config %+v: parallel report diverges from sequential", name, cfgs[i])
				}
			}
		})
	}
}

// TestDeterminismRepeatedParallelRuns hammers one moderately sized
// program with repeated parallel analyses under one configuration; any
// schedule-dependence in the wave pipeline shows up as run-to-run
// drift even when the sequential comparison would pass.
func TestDeterminismRepeatedParallelRuns(t *testing.T) {
	prog := ipcp.MustLoad(suite.Generate("ocean", 4).Source)
	cfg := ipcp.Config{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true, Workers: 8}
	first := prog.Analyze(cfg)
	normalizeReports([]*ipcp.Report{first})
	runs := 20
	if testing.Short() {
		runs = 5
	}
	for i := 0; i < runs; i++ {
		rep := prog.Analyze(cfg)
		normalizeReports([]*ipcp.Report{rep})
		if !reflect.DeepEqual(first, rep) {
			t.Fatalf("run %d diverged from run 0", i+1)
		}
	}
}

// TestDeterminismCloning extends the guarantee to the clone-and-analyze
// fixpoint: the cloning rounds, the clone names, and every reanalysis
// must come out identical whether the underlying propagations run
// sequentially or on 8 workers.
func TestDeterminismCloning(t *testing.T) {
	cfg := ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true}
	opts := ipcp.CloneOptions{MaxVersionsPerProc: 8, MaxRounds: 3}
	for _, name := range []string{"ocean", "linpackd", "spec77"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			gen := suite.Generate(name, 2)
			if gen == nil {
				t.Skipf("suite program %s unavailable", name)
			}
			prog := ipcp.MustLoad(gen.Source)

			seqCfg := cfg
			seqCfg.Workers = 1
			seq := prog.AnalyzeWithCloning(seqCfg, opts)
			parCfg := cfg
			parCfg.Workers = 8
			par := prog.AnalyzeWithCloning(parCfg, opts)

			if seq.Rounds != par.Rounds || seq.TotalClones != par.TotalClones {
				t.Fatalf("cloning diverged: seq %d rounds/%d clones, par %d rounds/%d clones",
					seq.Rounds, seq.TotalClones, par.Rounds, par.TotalClones)
			}
			normalizeReports([]*ipcp.Report{seq.Base, seq.Final, par.Base, par.Final})
			if !reflect.DeepEqual(seq.Base, par.Base) {
				t.Fatal("base report diverged between sequential and parallel cloning runs")
			}
			if !reflect.DeepEqual(seq.Final, par.Final) {
				t.Fatal("final report diverged between sequential and parallel cloning runs")
			}
		})
	}
}

// adversarialMatrix is a grid built to trip the matrix runner's
// sharing: a Complete configuration first in its key, whose first round
// builds the SSA program and stage-1 product the later members of its
// key read; interleaved stage-1 keys, with return JFs alternating
// within each MOD setting, so the two products over one SSA program
// are built at the same time; a duplicated configuration, a second
// Complete configuration joining a product another member built, two
// dependence-solver members, Debug on one member only (on one worker
// it builds nothing), and mixed worker counts.
func adversarialMatrix() []ipcp.Config {
	return []ipcp.Config{
		{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true, Complete: true, Workers: 1},
		{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true, Workers: 1},
		{Jump: ipcp.Polynomial, MOD: true, Workers: 2},
		{Jump: ipcp.Literal, ReturnJumpFunctions: true, MOD: true, Workers: 8, Debug: true},
		{Jump: ipcp.PassThrough},
		{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true, Complete: true, Workers: 2},
		{Jump: ipcp.PassThrough, MOD: true, DependenceSolver: true, Workers: 1},
		{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true, Workers: 1},
		{Jump: ipcp.Intraprocedural, ReturnJumpFunctions: true, Workers: 3},
		{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true, DependenceSolver: true},
		{Jump: ipcp.Intraprocedural, Workers: 2},
		{Jump: ipcp.Literal, ReturnJumpFunctions: true, Workers: 2},
	}
}

// TestAnalyzeMatrixMatchesAnalyze checks the matrix runner — one IR
// copy and SSA conversion per MOD setting, one stage 1 per (MOD, return
// JFs) pair — against per-configuration lowering on the realistic
// corpus programs (COMMON blocks, arrays, GOTOs — everything
// CloneProgram must reproduce faithfully). Every report must match positionally, pass
// trace included; only the trace's wall-clock Nanos are normalized.
func TestAnalyzeMatrixMatchesAnalyze(t *testing.T) {
	for _, path := range corpusFiles(t) {
		prog, err := ipcp.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfgs := range [][]ipcp.Config{determinismConfigs(), adversarialMatrix()} {
			direct := make([]*ipcp.Report, len(cfgs))
			for i, cfg := range cfgs {
				direct[i] = prog.Analyze(cfg)
			}
			normalizeReports(direct)
			for _, workers := range []int{1, 4} {
				matrix := prog.AnalyzeMatrix(cfgs, workers)
				normalizeReports(matrix)
				for i := range cfgs {
					if !reflect.DeepEqual(direct[i], matrix[i]) {
						t.Fatalf("%s config %d %+v, %d matrix workers: matrix report diverges from direct Analyze\ndirect: %+v\nmatrix: %+v",
							path, i, cfgs[i], workers, direct[i], matrix[i])
					}
				}
			}
		}
	}
}

// TestAnalyzeMatrixWithBaseline checks the combined call Table 3 makes:
// on every suite program and every corpus file, its baseline equals
// AnalyzeIntraprocedural's, which lowers and converts the program on
// its own, and its reports equal AnalyzeMatrix's. The grids are Table
// 3's columns, a grid without MOD, where the baseline converts the
// program itself, and no configuration at all.
func TestAnalyzeMatrixWithBaseline(t *testing.T) {
	type named struct {
		name string
		prog *ipcp.Program
	}
	var progs []named
	for _, name := range suite.Names() {
		progs = append(progs, named{name, ipcp.MustLoad(suite.Generate(name, suite.DefaultScale).Source)})
	}
	for _, path := range corpusFiles(t) {
		prog, err := ipcp.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, named{path, prog})
	}
	grids := [][]ipcp.Config{
		{
			{Jump: ipcp.Polynomial, ReturnJumpFunctions: true},
			{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true},
			{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true, Complete: true},
		},
		{
			{Jump: ipcp.PassThrough},
			{Jump: ipcp.Literal, ReturnJumpFunctions: true, Complete: true},
		},
		nil,
	}
	for _, p := range progs {
		want := p.prog.AnalyzeIntraprocedural()
		for g, cfgs := range grids {
			for _, workers := range []int{1, 4} {
				reps, intra := p.prog.AnalyzeMatrixWithBaseline(cfgs, workers)
				if !reflect.DeepEqual(intra, want) {
					t.Fatalf("%s grid %d, %d workers: baseline %+v, AnalyzeIntraprocedural %+v", p.name, g, workers, intra, want)
				}
				direct := p.prog.AnalyzeMatrix(cfgs, workers)
				normalizeReports(reps)
				normalizeReports(direct)
				if !reflect.DeepEqual(reps, direct) {
					t.Fatalf("%s grid %d, %d workers: reports diverge from AnalyzeMatrix", p.name, g, workers)
				}
			}
		}
	}
}
