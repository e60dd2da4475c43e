package core

import (
	"testing"

	"ipcp/internal/core/jump"
	"ipcp/internal/ir"
	"ipcp/internal/ir/irbuild"
	"ipcp/internal/mf/parser"
	"ipcp/internal/mf/sema"
	"ipcp/internal/suite"
)

func benchSema(b *testing.B, name string, scale int) *sema.Program {
	b.Helper()
	f, err := parser.Parse(suite.Generate(name, scale).Source)
	if err != nil {
		b.Fatal(err)
	}
	sp, err := sema.Analyze(f)
	if err != nil {
		b.Fatal(err)
	}
	return sp
}

// prepared builds a pipeline up to (but excluding) stage 3, so the
// solver benchmarks measure propagation alone.
func prepared(b *testing.B, sp *sema.Program, cfg Config) *propagation {
	b.Helper()
	s1 := newStage1(newSSAForm(irbuild.Build(sp), cfg.MOD, nil, nil, nil, false), cfg.ReturnJFs)
	s1.buildSSA(cfg.Workers)
	s1.stage1ReturnJFs(cfg.Workers)
	pipe := newPropagation(s1, cfg)
	pipe.stage2ForwardJFs()
	return pipe
}

// benchSolver measures stage 3 alone (jump functions prebuilt) under
// one wake-up policy.
func benchSolver(b *testing.B, dependence bool) {
	sp := benchSema(b, "ocean", 8)
	cfg := Config{Jump: jump.PassThrough, ReturnJFs: true, MOD: true, DependenceSolver: dependence}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pipe := prepared(b, sp, cfg)
		b.StartTimer()
		pipe.stage3Solve()
	}
}

// BenchmarkSolverSimple measures the paper's simple worklist policy.
func BenchmarkSolverSimple(b *testing.B) { benchSolver(b, false) }

// BenchmarkSolverDependence measures the Callahan et al. policy on the
// same prebuilt jump functions.
func BenchmarkSolverDependence(b *testing.B) { benchSolver(b, true) }

// BenchmarkStage1ReturnJFs isolates return-jump-function generation
// (which includes the value-numbering pass, the dominant cost per §4.1).
func BenchmarkStage1ReturnJFs(b *testing.B) {
	sp := benchSema(b, "ocean", 8)
	cfg := Config{Jump: jump.PassThrough, ReturnJFs: true, MOD: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s1 := newStage1(newSSAForm(irbuild.Build(sp), cfg.MOD, nil, nil, nil, false), cfg.ReturnJFs)
		s1.buildSSA(cfg.Workers)
		b.StartTimer()
		s1.stage1ReturnJFs(cfg.Workers)
	}
}

// BenchmarkSubstitutionCount isolates the paper's metric: stage 1's
// per-variable tallies (collectUses) and stage 4's sums over them
// (countFromUses).
func BenchmarkSubstitutionCount(b *testing.B) {
	sp := benchSema(b, "ocean", 8)
	cfg := Config{Jump: jump.PassThrough, ReturnJFs: true, MOD: true}
	pipe := prepared(b, sp, cfg)
	pipe.stage3Solve()
	b.ReportAllocs()
	total := 0
	for i := 0; i < b.N; i++ {
		total = 0
		for _, proc := range pipe.prog.Procs {
			pipe.uses[proc] = collectUses(proc, pipe.oracle)
			n, _ := pipe.countFromUses(proc)
			total += n
		}
	}
	if total == 0 {
		b.Fatal("no substitutions counted")
	}
	_ = ir.OpAdd
}

// fullMatrix is the 16-configuration sweep of the study (4 flavors ×
// MOD × return jump functions), with every pipeline pinned to the given
// worker count.
func fullMatrix(pipelineWorkers int) []Config {
	var cfgs []Config
	for _, j := range []jump.Kind{jump.Literal, jump.Intraprocedural, jump.PassThrough, jump.Polynomial} {
		for _, mod := range []bool{false, true} {
			for _, ret := range []bool{false, true} {
				cfgs = append(cfgs, Config{Jump: j, MOD: mod, ReturnJFs: ret, Workers: pipelineWorkers})
			}
		}
	}
	return cfgs
}

// BenchmarkAnalyzeMatrix compares the sequential 16-configuration sweep
// (one worker everywhere) against the parallel matrix runner (fan-out
// over the members, which share two SSA programs and four stage-1
// products, parallel per-procedure stages inside each pipeline). The speedup scales with
// cores; on one core the two are expected to tie, which bounds the
// orchestration overhead.
func BenchmarkAnalyzeMatrix(b *testing.B) {
	sp := benchSema(b, "ocean", 8)
	b.Run("seq", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			AnalyzeMatrix(sp, fullMatrix(1), 1)
		}
	})
	b.Run("par", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			AnalyzeMatrix(sp, fullMatrix(0), 0)
		}
	})
}

// BenchmarkStage2 isolates forward-jump-function generation. Its
// set-up runs stage 1 sequentially: after a parallel set-up the timed
// stage measured about 15% slower on a 2-CPU host.
func BenchmarkStage2(b *testing.B) {
	sp := benchSema(b, "ocean", 8)
	cfg := Config{Jump: jump.Polynomial, ReturnJFs: true, MOD: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s1 := newStage1(newSSAForm(irbuild.Build(sp), cfg.MOD, nil, nil, nil, false), cfg.ReturnJFs)
		s1.buildSSA(1)
		s1.stage1ReturnJFs(1)
		pipe := newPropagation(s1, cfg)
		b.StartTimer()
		pipe.stage2ForwardJFs()
	}
}

// BenchmarkStage1 isolates value numbering + return-jump-function
// generation under the wave schedule, sequential vs parallel.
func BenchmarkStage1(b *testing.B) {
	sp := benchSema(b, "ocean", 8)
	run := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			cfg := Config{Jump: jump.Polynomial, ReturnJFs: true, MOD: true, Workers: workers}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s1 := newStage1(newSSAForm(irbuild.Build(sp), cfg.MOD, nil, nil, nil, false), cfg.ReturnJFs)
				s1.buildSSA(workers)
				b.StartTimer()
				s1.stage1ReturnJFs(workers)
			}
		}
	}
	b.Run("seq", run(1))
	b.Run("par", run(0))
}
