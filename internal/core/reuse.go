package core

import (
	"ipcp/internal/analysis/callgraph"
	"ipcp/internal/analysis/modref"
	"ipcp/internal/core/jump"
	"ipcp/internal/ir"
)

// This file is core's half of the incremental re-analysis contract
// (internal/incr holds the other half): a caller that knows some
// procedures are unchanged since a previous run hands their stored
// stage-1/stage-2 outputs in as seeds, the propagation injects them
// instead of re-deriving (skipping SSA construction, value numbering
// and jump-function construction for those procedures), and the
// finished run hands back the summaries of every procedure so the
// caller can persist them.
//
// Soundness is entirely the caller's burden — a seed must be exactly
// what re-deriving would produce, which internal/incr guarantees by
// invalidating every procedure whose forward call cone changed and by
// validating every stored record against the current program where it
// reads the bytes. Core injects the seeds it is handed as they are.

// ProcSeed is everything stage 1 and stage 2 would compute for one
// unchanged procedure: its return jump functions (nil when none were
// built), its substitution tallies, which let stage 4 count without the
// procedure ever being converted to SSA form, and the jump functions of
// each call site, one per entry of the procedure's call-graph Sites and
// in that order, with Call set and vector lengths those of a fresh
// derivation (one entry per callee formal and one per scalar global,
// nil = ⊥). It mirrors summary.ProcSummary.
type ProcSeed struct {
	Returns *jump.Returns
	Uses    *ProcUses
	Sites   []*jump.Site
}

// Reuse is the seeded-analysis input: the pre-SSA callgraph and
// mod/ref summaries the caller already built for the program (handed
// to the first propagation so they are not recomputed), plus the seeds
// of the program's procedures. Any field may be nil.
type Reuse struct {
	CG    *callgraph.Graph
	Mods  *modref.Summary
	Procs map[*ir.Proc]*ProcSeed
}

// Summaries is the extraction a seeded run hands back: the return jump
// functions and call-site jump functions of every procedure (seeded
// ones included), keyed by name, with sites in callgraph body order.
// The expressions alias the analyzed program's IR; internal/summary
// makes them portable.
type Summaries struct {
	Returns map[string]*jump.Returns
	Sites   map[string][]*jump.Site

	// Uses holds the substitution tallies of every procedure.
	Uses map[string]*ProcUses
}

// AnalyzeSeeded runs one configured analysis over a fresh pre-SSA
// program with stored summaries injected for the seeded procedures,
// and additionally extracts the summaries of the (first) propagation
// so the caller can persist them. The Result is identical to Analyze
// on the same program — seeds only short-circuit derivations whose
// outcome is already known. In complete mode the seeds apply to the
// first propagation only; the post-DCE re-propagations run fresh,
// exactly as they do from scratch. The error is non-nil only when
// cfg.Cancel reported cancellation mid-run.
func AnalyzeSeeded(irp *ir.Program, cfg Config, reuse *Reuse) (*Result, *Summaries, error) {
	if reuse == nil {
		reuse = &Reuse{}
	}
	res, sums, err := analyze(irp, cfg, nil, reuse)
	if err != nil {
		return nil, nil, invariant(err)
	}
	return res, sums, nil
}

// extractSummaries collects the per-procedure summaries of a finished
// propagation, in deterministic callgraph order.
func (p *propagation) extractSummaries() *Summaries {
	s := &Summaries{
		Returns: make(map[string]*jump.Returns, len(p.prog.Procs)),
		Sites:   make(map[string][]*jump.Site, len(p.prog.Procs)),
		Uses:    make(map[string]*ProcUses, len(p.prog.Procs)),
	}
	for _, n := range p.cg.TopDown() {
		if r := p.retJFs.Get(n.Proc); r != nil {
			s.Returns[n.Proc.Name] = r
		}
		sites := make([]*jump.Site, len(n.Sites))
		for i, call := range n.Sites {
			sites[i] = p.sites[call]
		}
		s.Sites[n.Proc.Name] = sites
		s.Uses[n.Proc.Name] = p.uses[n.Proc]
	}
	return s
}
