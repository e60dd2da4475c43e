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
// (core.Result.SiteVals), clones the profitable procedures, retargets
// the call sites, and reanalyzes — iterating, because one round of
// cloning can expose new opportunities in the clones' callees.
package clone

import (
	"fmt"
	"sort"

	"ipcp/internal/core"
	"ipcp/internal/core/lattice"
	"ipcp/internal/ir"
	"ipcp/internal/pass"
)

// Options bounds the transformation.
type Options struct {
	// MaxVersionsPerProc caps the versions of one procedure (including
	// the original). Default 4.
	MaxVersionsPerProc int

	// MaxRounds caps the clone→reanalyze iterations. Default 3.
	MaxRounds int
}

func (o *Options) fill() {
	if o.MaxVersionsPerProc == 0 {
		o.MaxVersionsPerProc = 4
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 3
	}
}

// Stats reports what one Apply did.
type Stats struct {
	ProceduresCloned int // procedures that received at least one clone
	ClonesCreated    int // new procedure versions
}

// group is one equivalence class of call sites: same incoming
// jump-function vector.
type group struct {
	sig   string
	sites []*ir.Instr
}

// Apply performs one round of cloning over the analyzed program in res.
// It returns a fresh pre-SSA program with clones added and call sites
// retargeted, plus statistics. When nothing is profitable the returned
// program is an unchanged copy and the stats are zero.
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
				sv := res.SiteVals[call]
				if sv == nil {
					continue // unreachable caller
				}
				callee := call.Callee
				if callee.Kind == ir.MainProc {
					continue
				}
				sig := signature(sv)
				m := bySig[callee]
				if m == nil {
					m = make(map[string]*group)
					bySig[callee] = m
				}
				g := m[sig]
				if g == nil {
					g = &group{sig: sig}
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
	np := ir.NewProgram()
	np.Globals = res.Prog.Globals
	np.ScalarGlobals = res.Prog.ScalarGlobals
	for _, proc := range res.Prog.Procs {
		np.AddProc(proc.CloneStripSSA(nil, nil))
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
			name := cloneName(np, callee.Name, gi+1)
			nproc := callee.CloneStripSSA(nil, nil)
			nproc.Name = name
			np.AddProc(nproc)
			stats.ClonesCreated++
			for _, site := range g.sites {
				retargets = append(retargets, retarget{site: site, caller: callerOf[site], newName: name})
			}
		}
	}

	// Repoint every call into the new program, then apply retargets.
	for _, proc := range np.Procs {
		for _, b := range proc.Blocks {
			for _, i := range b.Instrs {
				if i.Op == ir.OpCall {
					i.Callee = np.ProcByName[i.Callee.Name]
				}
			}
		}
	}
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
				vals := pick(res.SiteVals[g.sites[0]])
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
	s := ""
	for _, v := range sv.Formals {
		s += v.String() + ","
	}
	s += "|"
	for _, v := range sv.Globals {
		s += v.String() + ","
	}
	return s
}

// cloneName picks an unused name derived from base.
func cloneName(p *ir.Program, base string, n int) string {
	//lint:ignore cancelpoll n strictly increases past the finite set of taken names, so the probe terminates
	for {
		name := fmt.Sprintf("%s_C%d", base, n)
		if _, taken := p.ProcByName[name]; !taken {
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

// clonePass is one cloning round as a pass: it reads the analysis of
// the current program and replaces the program with the cloned,
// retargeted version. Round 1 reads base, the analysis the caller
// already has; every later round reads prop, which the pass.Refresh
// ahead of the clone pass re-ran on the program the previous round
// built.
type clonePass struct {
	opts  Options
	base  *core.Result
	prop  *core.Propagate
	total int
}

func (c *clonePass) Name() string { return "clone" }

// current returns the analysis of the latest program prop or the
// caller analyzed.
func (c *clonePass) current() *core.Result {
	if res := c.prop.Result(); res != nil {
		return res
	}
	return c.base
}

func (c *clonePass) Run(ctx *pass.Context) (bool, error) {
	np, stats := Apply(c.current(), c.opts)
	if stats.ClonesCreated == 0 {
		return false, nil
	}
	c.total += stats.ClonesCreated
	ctx.SetProgram(np)
	return true, nil
}

// AndAnalyze iterates propagation and cloning until no more clones are
// profitable (or the round budget runs out), reanalyzing after each
// round as Metzger & Stroud's compiler did. The iteration is a
// budgeted pass.Fixpoint — the round cap is a quality budget, not a
// convergence bound, so exhausting it is not an error; the final
// program is still reanalyzed, outside any round, when the last round
// replaced it.
func AndAnalyze(base *core.Result, cfg core.Config, opts Options) *Result {
	opts.fill()
	prop := core.NewPropagate(cfg)
	cp := &clonePass{opts: opts, base: base, prop: prop}
	refresh := pass.NewRefresh(prop, base.Prog)
	fix := pass.NewBudgetedFixpoint("clone", pass.NewPipeline("clone-round", refresh, cp), opts.MaxRounds)

	ctx := pass.NewContext(base.Prog)
	ctx.Debug = cfg.Debug
	if _, err := ctx.Exec(fix); err != nil {
		panic("clone: " + err.Error())
	}
	if _, err := ctx.Exec(refresh); err != nil {
		panic("clone: " + err.Error())
	}

	final := cp.current()
	if final != base {
		final.Stats.Passes = ctx.PassStats()
	}
	return &Result{Base: base, Final: final, Rounds: fix.Rounds(), TotalClones: cp.total}
}
