package ipcp_test

import (
	"testing"

	"ipcp"
	"ipcp/internal/suite"
)

// Scratch-vs-incremental benchmarks on the largest suite program
// (doduc: the most procedures at default scale). The acceptance bar
// for the program database: a single-procedure edit re-analyzed
// incrementally must beat a from-scratch run.

var benchCfg = ipcp.Config{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true}

func benchSources(b *testing.B) (string, string) {
	b.Helper()
	src := suite.Generate("doduc", suite.DefaultScale).Source
	edited, ok := editProgram(b, src, 17)
	if !ok {
		b.Fatal("no editable literal in doduc")
	}
	return src, edited
}

func BenchmarkAnalyzeScratch(b *testing.B) {
	src, _ := benchSources(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog := ipcp.MustLoad(src)
		prog.Analyze(benchCfg)
	}
}

// BenchmarkAnalyzeIncrementalEdit measures the steady-state editing
// loop: a warm cache and snapshot exist, one procedure changed. Load
// time is included in both benchmarks so the comparison is end to end.
func BenchmarkAnalyzeIncrementalEdit(b *testing.B) {
	src, edited := benchSources(b)
	cache := ipcp.NewMemoryCache()
	_, snap := ipcp.MustLoad(src).AnalyzeIncremental(benchCfg, nil, cache)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog := ipcp.MustLoad(edited)
		rep, _ := prog.AnalyzeIncremental(benchCfg, snap, cache)
		if rep.Incremental.Reused == 0 {
			b.Fatal("edit benchmark reused nothing")
		}
	}
}

// BenchmarkCrossFlavorSweep measures the cmd/ipcp -all scenario: the
// four jump-function flavors analyzed back to back through one shared
// cache.
func BenchmarkCrossFlavorSweep(b *testing.B) {
	src, _ := benchSources(b)
	prog := ipcp.MustLoad(src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shared := ipcp.NewMemoryCache()
		for _, j := range ipcp.JumpFunctions {
			cfg := benchCfg
			cfg.Jump = j
			prog.AnalyzeIncremental(cfg, nil, shared)
		}
	}
}

// BenchmarkAnalyzeIncrementalUnchanged is the no-op floor: fingerprint,
// diff, bind every summary, solve.
func BenchmarkAnalyzeIncrementalUnchanged(b *testing.B) {
	src, _ := benchSources(b)
	cache := ipcp.NewMemoryCache()
	prog := ipcp.MustLoad(src)
	_, snap := prog.AnalyzeIncremental(benchCfg, nil, cache)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ipcp.MustLoad(src)
		rep, _ := p.AnalyzeIncremental(benchCfg, snap, cache)
		if rep.Incremental.Reanalyzed != 0 {
			b.Fatal("unchanged benchmark re-analyzed something")
		}
	}
}
