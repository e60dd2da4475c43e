package core

import (
	"ipcp/internal/analysis/callgraph"
	"ipcp/internal/analysis/modref"
	"ipcp/internal/analysis/sccp"
	"ipcp/internal/ir"
	"ipcp/internal/ir/irbuild"
	"ipcp/internal/mf/sema"
)

// IntraResult is the outcome of the purely intraprocedural baseline
// (Table 3, column 4).
type IntraResult struct {
	// Substituted maps procedure names to the number of variable
	// references each procedure's local propagation proves constant and
	// substitutes.
	Substituted map[string]int

	// TotalSubstituted is the program-wide count.
	TotalSubstituted int
}

// AnalyzeIntraprocedural runs a strictly intraprocedural constant
// propagation on every procedure: no constants cross procedure
// boundaries, but interprocedural MOD information is used at call sites
// ("For fair comparison, MOD information was used in the intraprocedural
// propagation", §4.2). The count is the number of variable references
// replaced by constants the local propagation discovers.
func AnalyzeIntraprocedural(sp *sema.Program) *IntraResult {
	return AnalyzeIntraproceduralIR(irbuild.Build(sp))
}

// AnalyzeIntraproceduralIR is AnalyzeIntraprocedural over an
// already-lowered (pre-SSA) program; the procedure-integration baseline
// uses it on inlined programs.
func AnalyzeIntraproceduralIR(irp *ir.Program) *IntraResult {
	// The mod/ref oracle must come from the pre-SSA program.
	oracle := modref.Compute(irp, callgraph.Build(irp)).Oracle()
	for _, proc := range irp.Procs {
		proc.BuildSSA(oracle)
	}
	return intraprocedural(irp, oracle)
}

// intraprocedural counts the baseline over irp, whose procedures are in
// SSA form under oracle, the MOD oracle. SCCP only reads the program,
// so the count can share an SSA program with the matrix configurations
// that enable MOD (AnalyzeMatrixWithBaseline).
func intraprocedural(irp *ir.Program, oracle ir.ModOracle) *IntraResult {
	res := &IntraResult{Substituted: make(map[string]int, len(irp.Procs))}
	for _, proc := range irp.Procs {
		n := countIntraSubstitutions(proc, sccp.Run(proc, nil, nil), oracle)
		res.Substituted[proc.Name] = n
		res.TotalSubstituted += n
	}
	return res
}

// countIntraSubstitutions counts textual variable references whose value
// SCCP proves to be an integer constant. The same exclusions as the
// interprocedural counter apply (synthetic uses, phi arguments, and
// by-reference actuals the callee may modify), so Table 3's columns are
// commensurable.
func countIntraSubstitutions(proc *ir.Proc, sres *sccp.Result, oracle ir.ModOracle) int {
	count := 0
	for _, b := range proc.Blocks {
		if !sres.Reachable[b.ID] {
			continue
		}
		for _, i := range b.Instrs {
			if i.Op == ir.OpPhi {
				continue
			}
			for a := range i.Args {
				op := &i.Args[a]
				if op.Synthetic || op.Val == nil {
					continue
				}
				if _, ok := sres.ValueOf(op.Val).IntConst(); !ok {
					continue
				}
				// Temps are expression-internal; the source reference
				// being replaced is the variable the temp chain started
				// from, so count only named-variable reads.
				if op.Val.Var.Kind == ir.TempVar {
					continue
				}
				if i.Op == ir.OpCall && a < i.NumActuals && isByRefModified(oracle, i, a) {
					continue
				}
				count++
			}
		}
	}
	return count
}
