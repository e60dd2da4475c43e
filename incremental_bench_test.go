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
// cache. Beyond ns/op it reports the flavor-split payoff — the stage-1
// hit rate over the three follow-on flavors (1.0 = every procedure's
// config-invariant summary was reused across flavors) and the bytes
// the shared cache stored versus four isolated, unsplit-key caches
// (shared_cache_bytes / isolated_cache_bytes; the gap is what the key
// split deduplicates).
func BenchmarkCrossFlavorSweep(b *testing.B) {
	src, _ := benchSources(b)
	prog := ipcp.MustLoad(src)
	var hitRate, sharedBytes, isolatedBytes float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shared := ipcp.NewMemoryCache()
		var s1Hits, s1Lookups int
		for fi, j := range ipcp.JumpFunctions {
			cfg := benchCfg
			cfg.Jump = j
			rep, _ := prog.AnalyzeIncremental(cfg, nil, shared)
			if fi > 0 {
				st := rep.Incremental
				s1Hits += st.Stage1Hits
				s1Lookups += st.Stage1Hits + st.Stage1Misses
			}
		}
		hitRate = float64(s1Hits) / float64(s1Lookups)
		sharedBytes = float64(shared.Stats().BytesSaved)
	}
	b.StopTimer()
	for _, j := range ipcp.JumpFunctions {
		cfg := benchCfg
		cfg.Jump = j
		iso := ipcp.NewMemoryCache()
		prog.AnalyzeIncremental(cfg, nil, iso)
		isolatedBytes += float64(iso.Stats().BytesSaved)
	}
	b.ReportMetric(hitRate, "s1_hit_rate")
	b.ReportMetric(sharedBytes, "shared_cache_bytes")
	b.ReportMetric(isolatedBytes, "isolated_cache_bytes")
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
