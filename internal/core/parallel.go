package core

import "ipcp/internal/analysis/callgraph"

// This file holds the call-graph wave schedule that lets the
// per-procedure stages (SSA construction, stage-1 value numbering +
// return jump functions) fan out across cores through par.For while
// producing results byte-identical to a sequential run.
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
// The matrix level (AnalyzeMatrix, matrix.go) fans out on top of this:
// each MOD setting gets its own copy of the IR, cloned before either
// is converted, and one SSA conversion. Each Stage1Key's product is
// built over its setting's SSA program by the first configuration that
// needs it, while the others wait; SSA construction is the last write
// to that program, so the two products of one setting (return jump
// functions on and off) value-number it concurrently, and the members'
// stages 2–4 and complete propagation's dead-code elimination read
// the products without writing them. Members share nothing mutable.

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
