//go:build !race

package ipcp_test

import (
	"runtime"
	"strings"
	"testing"

	"ipcp"
	"ipcp/internal/suite"
)

// These tests bound what analyzing symbolic-expression stress inputs
// allocates, measured as the growth of runtime.MemStats.TotalAlloc over
// the run. Symbolic expressions are a hash-consed DAG, so a doubling
// chain costs its d statements, not its 2^d-leaf tree, and a k-term sum
// costs k nodes, not the k² bytes of nested keys. The race detector
// changes what a run allocates, so the file is excluded under -race;
// scripts/check.sh runs it without.

// allocated returns the bytes run allocates.
func allocated(run func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDoublingChainAllocBound analyzes the d = 40 doubling chain, whose
// jump function is a tree of 2^40 leaves, under every flavor: from
// scratch, and through a durable disk cache cold and then warm. Each
// run must allocate under 50 MB, and under polynomial jump functions
// SINK's formal must be the constant 2^40.
func TestDoublingChainAllocBound(t *testing.T) {
	const limit = 50 << 20
	src := suite.DoublingChain(40)
	for _, jf := range ipcp.JumpFunctions {
		cfg := ipcp.Config{Jump: jf, ReturnJumpFunctions: true, MOD: true, Workers: 1}
		var rep *ipcp.Report
		got := allocated(func() { rep = ipcp.MustLoad(src).Analyze(cfg) })
		t.Logf("%s from scratch: %.2f MB", jf, float64(got)/(1<<20))
		if got > limit {
			t.Errorf("%s from scratch allocated %.2f MB, bound 50 MB", jf, float64(got)/(1<<20))
		}
		v, ok := rep.ConstantValue("SINK", "M")
		if jf == ipcp.Polynomial && (!ok || v != 1<<40) {
			t.Errorf("polynomial: SINK's M = %d (constant %v), want 2^40", v, ok)
		}
		if jf != ipcp.Polynomial && ok {
			t.Errorf("%s: SINK's M is the constant %d; only polynomial jump functions find it", jf, v)
		}

		dir := t.TempDir()
		for _, run := range []string{"cold", "warm"} {
			var inc *ipcp.Report
			got := allocated(func() {
				cache, _, err := ipcp.NewDurableCache(ipcp.DurableCacheOptions{Dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				inc, _ = ipcp.MustLoad(src).AnalyzeIncremental(cfg, nil, cache)
			})
			t.Logf("%s through a %s cache: %.2f MB", jf, run, float64(got)/(1<<20))
			if got > limit {
				t.Errorf("%s through a %s cache allocated %.2f MB, bound 50 MB", jf, run, float64(got)/(1<<20))
			}
			if hit := inc.Incremental.HitRate(); (run == "warm") != (hit == 1) {
				t.Errorf("%s through a %s cache: hit rate %.2f", jf, run, hit)
			}
			if w, ok := inc.ConstantValue("SINK", "M"); ok != (jf == ipcp.Polynomial) || (ok && w != 1<<40) {
				t.Errorf("%s through a %s cache: SINK's M = %d (constant %v)", jf, run, w, ok)
			}
		}
	}
}

// sumProgram returns a program whose procedure SUMS computes one k-term
// sum of its formal, 1 + NN + … + NN, and passes it to SINK. The parser
// bounds an expression's nesting, so the sum runs over statements of at
// most 500 terms, each adding to the last; value numbering sees one
// k-term expression.
func sumProgram(k int) string {
	var b strings.Builder
	b.WriteString("PROGRAM MAIN\n  INTEGER N\n  N = 1\n  CALL SUMS(N)\nEND\n\n")
	b.WriteString("SUBROUTINE SUMS(NN)\n  INTEGER NN\n  K = 1")
	for i := 1; i < k; i++ {
		if i%500 == 0 {
			b.WriteString("\n  K = K")
		}
		b.WriteString(" + NN")
	}
	b.WriteString("\n  CALL SINK(K)\n  RETURN\nEND\n\n")
	b.WriteString("SUBROUTINE SINK(M)\n  INTEGER M, R\n  R = M\n  RETURN\nEND\n")
	return b.String()
}

// TestSumAllocLinear loads and analyzes a k-term sum for k = 10^3 and
// 10^4 under polynomial jump functions: ten times the terms may cost at
// most 15 times the bytes (nested string keys cost a hundred times),
// and the larger run stays under 40 MB.
func TestSumAllocLinear(t *testing.T) {
	cfg := ipcp.Config{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true, Workers: 1}
	var bytes [2]uint64
	for i, k := range []int{1000, 10000} {
		src := sumProgram(k)
		var rep *ipcp.Report
		bytes[i] = allocated(func() { rep = ipcp.MustLoad(src).Analyze(cfg) })
		t.Logf("k = %d: %d-byte source, %.2f MB allocated", k, len(src), float64(bytes[i])/(1<<20))
		if v, ok := rep.ConstantValue("SINK", "M"); !ok || v != int64(k) {
			t.Fatalf("k = %d: SINK's M = %d (constant %v), want %d", k, v, ok, k)
		}
	}
	if ratio := float64(bytes[1]) / float64(bytes[0]); ratio > 15 {
		t.Errorf("ten times the terms allocated %.1f times the bytes", ratio)
	}
	if bytes[1] > 40<<20 {
		t.Errorf("k = 10^4 allocated %.2f MB, bound 40 MB", float64(bytes[1])/(1<<20))
	}
}
