// Package clone implements goal-directed procedure cloning driven by
// interprocedural constants — the technique of Cooper, Hall & Kennedy
// and of Metzger & Stroud that the paper cites as a major consumer of
// CONSTANTS sets (§1, §5): "goal-directed cloning of procedures based
// on interprocedural constants can substantially increase the number of
// interprocedural constants available".
//
// The mechanism: when two call sites pass *different* constants to the
// same procedure, the meet over the edges is ⊥ and both constants are
// lost. Cloning the procedure per distinct incoming constant vector
// lets every version keep its own CONSTANTS set. This package partitions
// call sites by the jump-function vectors a propagation produced
// (core.Result.EvalSite), clones the profitable procedures, retargets
// the call sites, and reanalyzes — iterating, because one round of
// cloning can expose new opportunities in the clones' callees.
package clone

import (
	"fmt"
	"sort"
	"strings"

	"ipcp/internal/core"
	"ipcp/internal/core/lattice"
	"ipcp/internal/ir"
	"ipcp/internal/pass"
)

// Options bounds the transformation. A field that is zero or
// negative takes its default.
type Options struct {
	// MaxVersionsPerProc caps the versions of one procedure (including
	// the original). Default 4.
	MaxVersionsPerProc int

	// MaxRounds caps the clone→reanalyze iterations. Default 3.
	MaxRounds int
}

func (o *Options) fill() {
	if o.MaxVersionsPerProc <= 0 {
		o.MaxVersionsPerProc = 4
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 3
	}
}

// Stats reports what one Apply did.
type Stats struct {
	ProceduresCloned int // procedures that received at least one clone
	ClonesCreated    int // new procedure versions
}

// group is one equivalence class of call sites: same incoming
// jump-function vector, vals.
type group struct {
	sig   string
	vals  *core.SiteValues
	sites []*ir.Instr
}

// Apply performs one round of cloning over the analyzed program in res.
// It returns a fresh pre-SSA program with clones added and call sites
// retargeted, plus statistics. When nothing is profitable it copies
// nothing: it returns res.Prog itself and zero stats.
func Apply(res *core.Result, opts Options) (*ir.Program, Stats) {
	opts.fill()
	var stats Stats

	// Partition call sites by signature, walking the program in order
	// so grouping (and therefore clone naming) is deterministic.
	plans := make(map[*ir.Proc][]*group)
	bySig := make(map[*ir.Proc]map[string]*group)
	callerOf := make(map[*ir.Instr]*ir.Proc)
	for _, proc := range res.Prog.Procs {
		for _, b := range proc.Blocks {
			for _, call := range b.Instrs {
				if call.Op != ir.OpCall {
					continue
				}
				callerOf[call] = proc
				callee := call.Callee
				if callee.Kind == ir.MainProc {
					continue
				}
				sv := res.EvalSite(proc, call)
				if sv == nil {
					continue // unreachable caller
				}
				sig := signature(sv)
				m := bySig[callee]
				if m == nil {
					m = make(map[string]*group)
					bySig[callee] = m
				}
				g := m[sig]
				if g == nil {
					g = &group{sig: sig, vals: sv}
					m[sig] = g
					plans[callee] = append(plans[callee], g)
				}
				g.sites = append(g.sites, call)
			}
		}
	}

	// Keep only profitable plans: >1 distinct signature, within the
	// version budget, and at least one position where the merged VAL is
	// not constant but some group supplies a constant (cloning recovers
	// a constant the meet destroyed).
	var cloneTargets []*ir.Proc
	for callee, groups := range plans {
		if len(groups) < 2 || len(groups) > opts.MaxVersionsPerProc {
			continue
		}
		if !profitable(res, callee, groups) {
			continue
		}
		cloneTargets = append(cloneTargets, callee)
	}
	if len(cloneTargets) == 0 {
		return res.Prog, stats
	}
	sort.Slice(cloneTargets, func(i, j int) bool { return cloneTargets[i].Name < cloneTargets[j].Name })

	// Instruction correspondence: call instructions are matched between
	// the original and its clone by their non-phi index in block order.
	indexOf := make(map[*ir.Instr]int)
	for _, proc := range res.Prog.Procs {
		idx := 0
		for _, b := range proc.Blocks {
			for _, i := range b.Instrs {
				if i.Op == ir.OpPhi {
					continue
				}
				indexOf[i] = idx
				idx++
			}
		}
	}

	// Build the new program: the base version of every procedure...
	procs := make([]*ir.Proc, 0, len(res.Prog.Procs))
	taken := make(map[string]bool, len(res.Prog.Procs))
	for _, proc := range res.Prog.Procs {
		procs = append(procs, proc.CloneStripSSA(nil))
		taken[proc.Name] = true
	}

	// ...plus the extra versions. Group 0 keeps the original name.
	type retarget struct {
		site    *ir.Instr
		caller  *ir.Proc
		newName string
	}
	var retargets []retarget
	for _, callee := range cloneTargets {
		stats.ProceduresCloned++
		for gi, g := range plans[callee][1:] {
			name := cloneName(taken, callee.Name, gi+1)
			taken[name] = true
			nproc := callee.CloneStripSSA(nil)
			nproc.Name = name
			procs = append(procs, nproc)
			stats.ClonesCreated++
			for _, site := range g.sites {
				retargets = append(retargets, retarget{site: site, caller: callerOf[site], newName: name})
			}
		}
	}

	// Repoint every call into the new program, then apply retargets.
	np := ir.Assemble(res.Prog, procs)
	for _, rt := range retargets {
		if rt.caller == nil {
			continue
		}
		nproc := np.ProcByName[rt.caller.Name]
		if site := instrAt(nproc, indexOf[rt.site]); site != nil && site.Op == ir.OpCall {
			site.Callee = np.ProcByName[rt.newName]
		}
	}
	return np, stats
}

// instrAt returns the want-th instruction of a pre-SSA procedure in
// block order (clones contain no phis, so plain counting matches the
// original's non-phi index).
func instrAt(proc *ir.Proc, want int) *ir.Instr {
	idx := 0
	for _, b := range proc.Blocks {
		for _, i := range b.Instrs {
			if idx == want {
				return i
			}
			idx++
		}
	}
	return nil
}

// profitable reports whether cloning callee would recover a constant.
func profitable(res *core.Result, callee *ir.Proc, groups []*group) bool {
	pr := res.Procs[callee.Name]
	if pr == nil {
		return false
	}
	check := func(merged []lattice.Value, pick func(*core.SiteValues) []lattice.Value) bool {
		for pos := range merged {
			if merged[pos].IsConst() {
				continue
			}
			for _, g := range groups {
				vals := pick(g.vals)
				if pos < len(vals) && vals[pos].IsConst() {
					return true
				}
			}
		}
		return false
	}
	if check(pr.FormalVals, func(sv *core.SiteValues) []lattice.Value { return sv.Formals }) {
		return true
	}
	return check(pr.GlobalVals, func(sv *core.SiteValues) []lattice.Value { return sv.Globals })
}

// signature renders a site's incoming vector as a grouping key.
func signature(sv *core.SiteValues) string {
	var b strings.Builder
	for _, v := range sv.Formals {
		b.WriteString(v.String())
		b.WriteByte(',')
	}
	b.WriteByte('|')
	for _, v := range sv.Globals {
		b.WriteString(v.String())
		b.WriteByte(',')
	}
	return b.String()
}

// cloneName picks a name derived from base that is not taken.
func cloneName(taken map[string]bool, base string, n int) string {
	//lint:ignore cancelpoll n strictly increases past the finite set of taken names, so the probe terminates
	for {
		name := fmt.Sprintf("%s_C%d", base, n)
		if !taken[name] {
			return name
		}
		n++
	}
}

// Result of an iterated clone-and-analyze run.
type Result struct {
	// Base is the analysis of the original program.
	Base *core.Result

	// Final is the analysis after cloning converged.
	Final *core.Result

	// Rounds is the number of cloning rounds applied.
	Rounds int

	// TotalClones counts all procedure versions created.
	TotalClones int
}

// AndAnalyze iterates propagation and cloning until no more clones are
// profitable (or the round budget runs out), reanalyzing after each
// round as Metzger & Stroud's compiler did. Round 1 clones base, the
// analysis the caller already has; every later round first
// reanalyzes the program the previous round built. The round cap is a
// quality budget, not a convergence bound, so exhausting it is not an
// error: the final program is still reanalyzed, outside any round.
//
// The trace of Final reads propagate and clone per round (round 1
// without a propagate), then a "clone" row that summarizes the loop,
// then that last propagate if the budget ran out. When no round
// clones anything, Final is base, trace included.
func AndAnalyze(base *core.Result, cfg core.Config, opts Options) *Result {
	opts.fill()
	rec := &pass.Recorder{Debug: cfg.Debug}
	must := func(err error) {
		if err != nil {
			panic("clone: " + err.Error())
		}
	}
	loop, err := rec.Begin("clone", 0, pass.SizeOf(base.Prog))
	must(err)
	loop.Fixpoint = true
	cur, prog, total := base, base.Prog, 0
	for round := 1; round <= opts.MaxRounds; round++ {
		if prog != cur.Prog {
			cur, err = core.Reanalyze(rec, round, prog, cfg)
			must(err)
		}
		row, err := rec.Begin("clone", round, pass.SizeOf(prog))
		must(err)
		np, stats := Apply(cur, opts)
		changed := stats.ClonesCreated > 0
		if changed {
			prog = np
		}
		must(rec.End(row, prog, changed))
		if !changed {
			break
		}
		total += stats.ClonesCreated
		loop.Rounds++
	}
	must(rec.End(loop, prog, loop.Rounds > 0))
	if prog != cur.Prog {
		cur, err = core.Reanalyze(rec, 0, prog, cfg)
		must(err)
	}
	if cur != base {
		cur.Stats.Passes = rec.Stats()
	}
	return &Result{Base: base, Final: cur, Rounds: loop.Rounds, TotalClones: total}
}
