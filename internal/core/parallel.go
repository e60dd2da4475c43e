package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ipcp/internal/analysis/callgraph"
)

// This file implements the concurrency substrate of the analyzer: a
// bounded worker pool and the call-graph wave schedule that lets the
// per-procedure stages (SSA construction, stage-1 value numbering +
// return jump functions) fan out across cores while producing results
// byte-identical to a sequential run.
//
// The determinism argument, stage by stage:
//
//   - buildSSA mutates only the procedure it is given; the MOD oracle it
//     consults is read-only after modref.Compute. Per-procedure output
//     depends only on that procedure, so execution order is irrelevant.
//
//   - stage 1 has real cross-procedure dependencies: value-numbering a
//     caller evaluates the *return jump functions* of its callees. We
//     therefore schedule procedures in waves over the condensation of
//     the call graph (sccWaves): a wave only starts after every callee
//     outside its members' SCCs has been fully processed, and results
//     are published into the shared maps sequentially between waves.
//     Within a wave no goroutine writes shared state, and procedures in
//     the same SCC never see each other's return jump functions (they
//     are recursive, so none are ever built) — exactly the sequential
//     bottom-up semantics.
//
//   - stage 2 runs sequentially in call-graph order: it only reads the
//     (now final) stage-1 value numberings, and a worker pool did not
//     pay for itself on it.
//
//   - stage 3 (the interprocedural worklist) stays sequential: its whole
//     job is ordered meets into shared VAL sets, the per-program work is
//     tiny compared to stage 1, and keeping it single-threaded is
//     what makes the solver-effort counters (SolverPasses,
//     JFEvaluations) reproducible run to run.
//
// The matrix level (AnalyzeMatrix) fans out on top of this: each
// stage-1 group (configurations with one Stage1Key) and each Complete
// configuration gets its own copy of the IR, all cloned before any
// group starts mutating one. Inside a group, the
// leader's run builds the SSA form, value numbering and return jump
// functions; only then do the other members start, and their stages
// 2–4 read that product without writing it, so members share nothing
// mutable.

// poolSize resolves a Workers setting: n > 0 is taken literally, and
// anything else means one worker per available CPU.
func poolSize(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// parallelFor runs fn(i) for every i in [0, n) on up to workers
// goroutines. With workers <= 1 it degenerates to a plain loop — the
// sequential reference path the differential tests compare against.
// Work items are handed out through an atomic counter, so scheduling is
// nondeterministic but the set of calls (and, per the notes above, the
// results) is not.
func parallelFor(workers, n int, fn func(int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			//lint:ignore cancelpoll the shared counter strictly advances to n, so the loop runs at most n iterations; fn itself polls deadlines
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// sccWaves partitions the call graph's bottom-up order into waves that
// respect the condensation DAG: wave k contains exactly the procedures
// whose every callee outside their own SCC sits in a wave < k. All
// procedures inside one wave are mutually independent for stage-1
// purposes, so each wave can run fully parallel; publishing results
// between waves keeps every cross-wave read ordered.
func sccWaves(cg *callgraph.Graph) [][]*callgraph.Node {
	// SCCs are numbered in reverse topological order, so every external
	// callee's component is already leveled when we reach its caller's.
	level := make([]int, len(cg.SCCs))
	maxLevel := 0
	for s, comp := range cg.SCCs {
		lv := 0
		for _, n := range comp {
			for _, m := range n.Callees {
				if m.SCC != s && level[m.SCC]+1 > lv {
					lv = level[m.SCC] + 1
				}
			}
		}
		level[s] = lv
		if lv > maxLevel {
			maxLevel = lv
		}
	}
	waves := make([][]*callgraph.Node, maxLevel+1)
	// Walk BottomUp so each wave preserves the sequential visit order —
	// the waves' contents matter for correctness, their internal order
	// only for keeping the published map fills reproducible.
	for _, n := range cg.BottomUp() {
		lv := level[n.SCC]
		waves[lv] = append(waves[lv], n)
	}
	return waves
}
