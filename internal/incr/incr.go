// Package incr is the incremental re-analysis driver — the
// recompilation-analysis half of the program database (internal/summary
// holds the storage half). Given a previous run's snapshot and an
// edited program, it diffs per-procedure source fingerprints,
// invalidates the changed procedures plus everything reachable backward
// through the call graph (whose jump functions may have depended on
// them), rebinds stored summaries for the survivors, and runs the
// interprocedural solver with those summaries injected. The Result is
// reflect.DeepEqual to a from-scratch analysis — the determinism suite
// proves it over random edit sequences.
//
// # Key scheme
//
// The store is content-addressed by *cone keys*. The summary of a
// procedure depends not only on its own source but on everything its
// jump functions were derived from: return jump functions of its
// callees, transitively — its forward cone in the call graph. So each
// strongly-connected component gets a Merkle-style cone hash
//
//	cone(C) = H(configKey, globalsHash, sorted member source hashes,
//	            sorted cone hashes of successor components)
//
// computed callee-first over the condensation, and a procedure's store
// key is H(cone(SCC(p)), hash(p), name(p)). Two runs therefore agree
// on a key exactly when the procedure's whole derivation cone is
// byte-identical — which makes the store safe to share across
// divergent edit histories (snapshot branching) and across processes:
// a stale entry is simply never asked for again.
//
// configKey is ConfigKey, so each procedure has one key per
// configuration, and one summary.ProcSummary is stored under it.
//
// # Invalidation and lookup rule
//
// A procedure is re-analyzed when its own normalized source changed,
// when the configuration or COMMON-block schema changed (everything
// is), or when any procedure it transitively *calls* changed — i.e.
// the changed set is closed backward over caller edges, mirroring the
// recompilation analysis of ParaScope's program compiler. Procedures
// outside the closure have unchanged cone keys, and those are looked
// up in the store. When there is no comparable previous snapshot at
// all (a first run under this configuration), *every* procedure is
// looked up instead: the keys are complete content addresses and
// binding re-validates against the fresh program, so a hit written by
// another run — a different process or lineage — is sound to reuse,
// and that is exactly what makes a shared or remote store pay off
// without any snapshot handoff.
package incr

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"ipcp/internal/analysis/callgraph"
	"ipcp/internal/analysis/modref"
	"ipcp/internal/core"
	"ipcp/internal/core/jump"
	"ipcp/internal/ir"
	"ipcp/internal/ir/irbuild"
	"ipcp/internal/mf/sema"
	"ipcp/internal/par"
	"ipcp/internal/summary"
	"ipcp/internal/sym"
)

// Stats reports how one incremental run split the program.
type Stats struct {
	// TotalProcs is the number of procedures in the program; Reanalyzed
	// of them had their summaries rebuilt, Reused ran on stored ones.
	TotalProcs int
	Reanalyzed int
	Reused     int

	// Hits and Misses count this run's record lookups: one per
	// candidate procedure (every procedure the invalidation rule kept
	// — all of them when no comparable snapshot exists), a hit when
	// the record was present and bound cleanly, so the procedure ran
	// on its seed. (With a comparable snapshot, invalidated procedures
	// are known stale and never looked up.)
	Hits   int
	Misses int

	// WorklistVisited counts the stage-3 work items the solve visited.
	// Stage 3 always solves from the initial VAL sets, so it equals the
	// Result's SolverPasses.
	WorklistVisited int64

	// StoreErr is the first record this run failed to store (nil when
	// every record landed). A failed store never changes the result; it
	// only costs a later run a recomputation.
	StoreErr error
}

// Engine drives incremental analysis over one summary store. An Engine
// is stateless apart from the store and safe for concurrent use.
type Engine struct {
	store summary.Store
}

// NewEngine returns an engine over the given store.
func NewEngine(store summary.Store) *Engine {
	return &Engine{store: store}
}

// ConfigKey fingerprints the configuration bits stored records depend
// on — the jump-function flavor, the return-JF and MOD toggles — plus
// the codec version. Workers, Debug, the solver choice, and Complete
// deliberately stay out: none of them change what stages 1–2 compute
// for a procedure (complete-mode re-propagations run on DCE'd programs
// and never touch the store). Snapshots carry this key: a snapshot
// stamps each procedure with its record key, which the cache GC pins,
// so every flavor keeps its own snapshot.
func ConfigKey(cfg core.Config) string {
	return summary.KeyOf(
		"config",
		fmt.Sprintf("codec=%d", summary.Version),
		fmt.Sprintf("jump=%d", int(cfg.Jump)),
		fmt.Sprintf("ret=%t", cfg.ReturnJFs),
		fmt.Sprintf("mod=%t", cfg.MOD),
	).String()
}

// Analyze runs cfg over sp, reusing summaries from the engine's store
// for every procedure the previous snapshot proves unchanged. prev may
// be nil (first run: everything is re-analyzed and stored). It returns
// the analysis result — identical to core.Analyze(sp, cfg) — plus the
// new snapshot and the run's reuse statistics. The error is non-nil
// only when cfg.Cancel reported cancellation mid-run.
func (e *Engine) Analyze(sp *sema.Program, cfg core.Config, prev *summary.Snapshot) (*core.Result, *summary.Snapshot, Stats, error) {
	fps := sp.Fingerprints(cfg.Workers)
	globalsHash := sp.GlobalsHash()
	cfgKey := ConfigKey(cfg)

	// Lower once and take the whole-program views while the IR is still
	// pre-SSA; they feed both the invalidation decision and — through
	// core.Reuse — the first propagation, so nothing is computed twice.
	irp := irbuild.Build(sp)
	cg := callgraph.Build(irp)
	mods := modref.Compute(irp, cg)

	keys := coneKeys(cg, fps, cfgKey, globalsHash)
	invalid := invalidProcs(cg, fps, cfgKey, globalsHash, prev)

	stats := Stats{TotalProcs: len(irp.Procs)}
	// Fetch and bind candidate summaries over cfg.Workers: binding only
	// reads the shared program views, and the per-procedure results land
	// in distinct slots, so the outcome is independent of scheduling.
	fetched := make([]*core.ProcSeed, len(irp.Procs))
	par.For(cfg.Workers, len(irp.Procs), func(i int) {
		proc := irp.Procs[i]
		if invalid[proc.Name] {
			return
		}
		fetched[i] = e.fetch(keys[proc.Name], proc, irp, cg, mods, fps)
	})
	seeds := make(map[*ir.Proc]*core.ProcSeed)
	for i, proc := range irp.Procs {
		if invalid[proc.Name] {
			continue
		}
		if fetched[i] == nil {
			stats.Misses++
			continue
		}
		seeds[proc] = fetched[i]
		stats.Hits++
	}
	stats.Reused = len(seeds)
	stats.Reanalyzed = stats.TotalProcs - stats.Reused

	res, sums, err := core.AnalyzeSeeded(irp, cfg, &core.Reuse{CG: cg, Mods: mods, Procs: seeds})
	if err != nil {
		return nil, nil, stats, err
	}
	stats.WorklistVisited = int64(res.SolverPasses)

	// Stamp the new snapshot with each procedure's source fingerprint
	// and record key.
	snap := &summary.Snapshot{
		ConfigKey:   cfgKey,
		GlobalsHash: globalsHash,
		Procs:       make(map[string]summary.ProcStamp, len(irp.Procs)),
	}
	for _, proc := range irp.Procs {
		snap.Procs[proc.Name] = summary.ProcStamp{SourceHash: fps[proc.Name], Key: keys[proc.Name]}
	}
	// Store the records this run had to rebuild (reused ones are already
	// stored under the same keys) over cfg.Workers, as the fetch loop:
	// a put returns only once every tier holds the record, so a cold
	// run's writes overlap. Each failure lands in its procedure's slot,
	// so the first one reported is the first in program order.
	putErrs := make([]error, len(irp.Procs))
	par.For(cfg.Workers, len(irp.Procs), func(i int) {
		proc := irp.Procs[i]
		if seeds[proc] != nil {
			return
		}
		ps, err := encodeProc(proc, cg.Nodes[proc], irp, sums, mods, fps)
		if err != nil {
			return
		}
		putErrs[i] = e.store.Put(keys[proc.Name], summary.EncodeProc(ps))
	})
	for _, err := range putErrs {
		if err != nil {
			stats.StoreErr = err
			break
		}
	}
	return res, snap, stats, nil
}

// ---------------------------------------------------------------------------
// Keys and invalidation

// coneKeys computes the store key of every procedure (see the package
// comment for the scheme). The callgraph's SCCs come callee-first, so
// one forward sweep has every successor component's hash ready.
func coneKeys(cg *callgraph.Graph, fps map[string]string, cfgKey, globalsHash string) map[string]summary.Key {
	cones := make([]string, len(cg.SCCs))
	for si, comp := range cg.SCCs {
		members := make([]string, 0, len(comp))
		succSeen := make(map[int]bool)
		var succs []string
		for _, n := range comp {
			members = append(members, fps[n.Proc.Name])
			for _, m := range n.Callees {
				if m.SCC != si && !succSeen[m.SCC] {
					succSeen[m.SCC] = true
					succs = append(succs, cones[m.SCC])
				}
			}
		}
		sort.Strings(members)
		sort.Strings(succs)
		parts := []string{"cone", cfgKey, globalsHash, strconv.Itoa(len(members))}
		parts = append(parts, members...)
		parts = append(parts, succs...)
		cones[si] = summary.KeyOf(parts...).String()
	}
	keys := make(map[string]summary.Key, len(cg.Nodes))
	for _, n := range cg.BottomUp() {
		name := n.Proc.Name
		keys[name] = summary.KeyOf("proc", cones[n.SCC], fps[name], name)
	}
	return keys
}

// invalidProcs returns the set of procedures whose stored records are
// known stale and not worth looking up: the procedures whose
// normalized source changed (or are new) since the comparable previous
// snapshot, closed backward over caller edges. When there is no
// comparable snapshot the set is empty — not full: every procedure
// becomes a lookup candidate, because the content-addressed keys plus
// bind's re-validation make any hit sound regardless of which run
// (process or lineage) wrote it. A fresh run against a warm shared
// store starts at full reuse instead of zero.
func invalidProcs(cg *callgraph.Graph, fps map[string]string, cfgKey, globalsHash string, prev *summary.Snapshot) map[string]bool {
	invalid := make(map[string]bool)
	if prev == nil || prev.ConfigKey != cfgKey || prev.GlobalsHash != globalsHash {
		return invalid
	}
	var queue []*callgraph.Node
	for _, n := range cg.BottomUp() {
		name := n.Proc.Name
		st, ok := prev.Procs[name]
		if !ok || fps[name] == "" || st.SourceHash != fps[name] {
			invalid[name] = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range n.Callers {
			if !invalid[c.Proc.Name] {
				invalid[c.Proc.Name] = true
				queue = append(queue, c)
			}
		}
	}
	return invalid
}

// calleeNames returns a node's distinct callee names, sorted.
func calleeNames(n *callgraph.Node) []string {
	if n == nil || len(n.Callees) == 0 {
		return nil
	}
	names := make([]string, len(n.Callees))
	for i, m := range n.Callees {
		names[i] = m.Proc.Name
	}
	sort.Strings(names)
	return names
}

// ---------------------------------------------------------------------------
// Binding stored summaries into the current program

// fetch looks up, decodes, and binds one procedure's stored record. Any
// failure — absent, corrupt, or structurally incompatible — degrades to
// re-analysis (a nil seed); dropping a seed is always sound.
func (e *Engine) fetch(key summary.Key, proc *ir.Proc, prog *ir.Program, cg *callgraph.Graph, mods *modref.Summary, fps map[string]string) *core.ProcSeed {
	data, ok := e.store.Get(key)
	if !ok {
		return nil
	}
	ps, err := summary.DecodeProc(data)
	if err != nil {
		return nil
	}
	seed, err := bind(ps, proc, prog, cg, mods, fps)
	if err != nil {
		return nil
	}
	return seed
}

// bind validates a decoded record against the current program and
// rebinds its portable expressions to sym leaves and its site jump
// functions to the procedure's call sites. The MOD/REF sets are
// cross-checked against the freshly computed summary — side-effect
// facts always come from the current program, and a stored record that
// disagrees is rejected rather than trusted. So is a record with return
// jump functions for a procedure in a call-graph cycle, which a
// derivation never gives any.
func bind(ps *summary.ProcSummary, proc *ir.Proc, prog *ir.Program, cg *callgraph.Graph, mods *modref.Summary, fps map[string]string) (*core.ProcSeed, error) {
	if ps.Name != proc.Name {
		return nil, fmt.Errorf("incr: summary names %q, want %q", ps.Name, proc.Name)
	}
	if ps.SourceHash == "" || ps.SourceHash != fps[proc.Name] {
		return nil, fmt.Errorf("incr: source hash mismatch for %s", proc.Name)
	}
	n := cg.Nodes[proc]
	if n == nil {
		return nil, fmt.Errorf("incr: %s missing from call graph", proc.Name)
	}
	if !slices.Equal(ps.Callees, calleeNames(n)) {
		return nil, fmt.Errorf("incr: callee set mismatch for %s", proc.Name)
	}
	if err := checkModRef(ps, proc, prog, mods); err != nil {
		return nil, err
	}
	if len(ps.FormalUses) != len(proc.Formals) || len(ps.GlobalUses) != len(proc.GlobalVars) {
		return nil, fmt.Errorf("incr: %s use-vector length mismatch", proc.Name)
	}
	if ps.SSAPhis < 0 {
		return nil, fmt.Errorf("incr: %s has negative phi count", proc.Name)
	}
	if len(ps.Sites) != len(n.Sites) {
		return nil, fmt.Errorf("incr: %s has %d sites, summary has %d", proc.Name, len(n.Sites), len(ps.Sites))
	}

	nformals := len(proc.Formals)
	binder := summary.NewBinder(prog, nformals)
	seed := &core.ProcSeed{Uses: &core.ProcUses{
		Formal: make([]core.VarUses, len(ps.FormalUses)),
		Global: make([]core.VarUses, len(ps.GlobalUses)),
		Phis:   ps.SSAPhis,
	}}
	for i, u := range ps.FormalUses {
		seed.Uses.Formal[i] = core.VarUses{Subs: u.Subs, Control: u.Control}
	}
	for k, u := range ps.GlobalUses {
		seed.Uses.Global[k] = core.VarUses{Subs: u.Subs, Control: u.Control}
	}
	if ps.Returns != nil {
		if cg.InCycle(n) {
			return nil, fmt.Errorf("incr: %s is recursive but has return JFs", proc.Name)
		}
		if len(ps.Returns.Formal) != nformals {
			return nil, fmt.Errorf("incr: %s return-JF arity mismatch", proc.Name)
		}
		r := &jump.Returns{
			Formal: make([]sym.Expr, nformals),
			Global: make(map[*ir.GlobalVar]sym.Expr),
		}
		var err error
		if r.Result, err = binder.ToSym(ps.Returns.Result); err != nil {
			return nil, err
		}
		for i, pe := range ps.Returns.Formal {
			if r.Formal[i], err = binder.ToSym(pe); err != nil {
				return nil, err
			}
		}
		for _, ge := range ps.Returns.Globals {
			if ge.ID < 0 || ge.ID >= len(prog.Globals) || prog.Globals[ge.ID].String() != ge.Ref {
				return nil, fmt.Errorf("incr: %s return-JF global %d/%s unresolvable", proc.Name, ge.ID, ge.Ref)
			}
			se, err := binder.ToSym(ge.E)
			if err != nil {
				return nil, err
			}
			if se == nil {
				return nil, fmt.Errorf("incr: %s return-JF global %s is ⊥", proc.Name, ge.Ref)
			}
			r.Global[prog.Globals[ge.ID]] = se
		}
		seed.Returns = r
	}
	seed.Sites = make([]*jump.Site, len(ps.Sites))
	for si, ss := range ps.Sites {
		call := n.Sites[si]
		if ss.Callee != call.Callee.Name {
			return nil, fmt.Errorf("incr: %s site %d calls %s, summary says %s", proc.Name, si, call.Callee.Name, ss.Callee)
		}
		if len(ss.Formal) != len(call.Callee.Formals) || len(ss.Global) != len(prog.ScalarGlobals) {
			return nil, fmt.Errorf("incr: %s site %d vector length mismatch", proc.Name, si)
		}
		site := &jump.Site{
			Call:   call,
			Formal: make([]sym.Expr, len(ss.Formal)),
			Global: make([]sym.Expr, len(ss.Global)),
		}
		var err error
		for i, pe := range ss.Formal {
			// Site jump functions range over the *caller's* entry values.
			if site.Formal[i], err = binder.ToSym(pe); err != nil {
				return nil, err
			}
		}
		for k, pe := range ss.Global {
			if site.Global[k], err = binder.ToSym(pe); err != nil {
				return nil, err
			}
		}
		seed.Sites[si] = site
	}
	return seed, nil
}

// checkModRef verifies the stored MOD/REF sets against the current
// program's freshly computed summary.
func checkModRef(ps *summary.ProcSummary, proc *ir.Proc, prog *ir.Program, mods *modref.Summary) error {
	if len(ps.ModFormals) != len(proc.Formals) || len(ps.RefFormals) != len(proc.Formals) {
		return fmt.Errorf("incr: %s MOD/REF formal arity mismatch", proc.Name)
	}
	for i := range proc.Formals {
		if ps.ModFormals[i] != mods.ModFormal(proc, i) || ps.RefFormals[i] != mods.RefFormal(proc, i) {
			return fmt.Errorf("incr: %s MOD/REF formal %d mismatch", proc.Name, i)
		}
	}
	var mg, rg []int
	for _, g := range prog.Globals {
		if mods.ModGlobal(proc, g) {
			mg = append(mg, g.ID)
		}
		if mods.RefGlobal(proc, g) {
			rg = append(rg, g.ID)
		}
	}
	if !slices.Equal(ps.ModGlobals, mg) || !slices.Equal(ps.RefGlobals, rg) {
		return fmt.Errorf("incr: %s MOD/REF global set mismatch", proc.Name)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Encoding fresh summaries

// encodeProc converts one procedure's extracted summaries to portable
// form. An error (an expression with no portable spelling) means the
// record is unstorable; the caller skips it and the next run simply
// recomputes.
func encodeProc(proc *ir.Proc, n *callgraph.Node, prog *ir.Program, sums *core.Summaries, mods *modref.Summary, fps map[string]string) (*summary.ProcSummary, error) {
	name := proc.Name
	if sums == nil {
		return nil, fmt.Errorf("incr: no summaries extracted")
	}
	if fps[name] == "" {
		return nil, fmt.Errorf("incr: %s has no fingerprint", name)
	}
	ps := &summary.ProcSummary{
		Name:       name,
		SourceHash: fps[name],
		Callees:    calleeNames(n),
	}
	var export summary.Exporter
	if r := sums.Returns[name]; r != nil {
		rs := &summary.ReturnSummary{Formal: make([]summary.Expr, len(r.Formal))}
		var err error
		if rs.Result, err = export.FromSym(r.Result); err != nil {
			return nil, err
		}
		for i, e := range r.Formal {
			if rs.Formal[i], err = export.FromSym(e); err != nil {
				return nil, err
			}
		}
		for g, e := range r.Global {
			pe, err := export.FromSym(e)
			if err != nil {
				return nil, err
			}
			if pe == nil {
				continue // ⊥ entries carry no information
			}
			rs.Globals = append(rs.Globals, summary.GlobalExpr{ID: g.ID, Ref: g.String(), E: pe})
		}
		summary.SortGlobalExprs(rs.Globals)
		ps.Returns = rs
	}
	ps.ModFormals = make([]bool, len(proc.Formals))
	ps.RefFormals = make([]bool, len(proc.Formals))
	for i := range proc.Formals {
		ps.ModFormals[i] = mods.ModFormal(proc, i)
		ps.RefFormals[i] = mods.RefFormal(proc, i)
	}
	for _, g := range prog.Globals {
		if mods.ModGlobal(proc, g) {
			ps.ModGlobals = append(ps.ModGlobals, g.ID)
		}
		if mods.RefGlobal(proc, g) {
			ps.RefGlobals = append(ps.RefGlobals, g.ID)
		}
	}
	uses := sums.Uses[name]
	if uses == nil {
		return nil, fmt.Errorf("incr: %s has no use vectors", name)
	}
	ps.FormalUses = make([]summary.UseCount, len(uses.Formal))
	for i, u := range uses.Formal {
		ps.FormalUses[i] = summary.UseCount{Subs: u.Subs, Control: u.Control}
	}
	ps.GlobalUses = make([]summary.UseCount, len(uses.Global))
	for k, u := range uses.Global {
		ps.GlobalUses[k] = summary.UseCount{Subs: u.Subs, Control: u.Control}
	}
	ps.SSAPhis = uses.Phis
	for _, site := range sums.Sites[name] {
		if site == nil {
			return nil, fmt.Errorf("incr: %s has an unextracted site", name)
		}
		ss := &summary.SiteSummary{
			Callee: site.Call.Callee.Name,
			Formal: make([]summary.Expr, len(site.Formal)),
			Global: make([]summary.Expr, len(site.Global)),
		}
		var err error
		for i, e := range site.Formal {
			if ss.Formal[i], err = export.FromSym(e); err != nil {
				return nil, err
			}
		}
		for k, e := range site.Global {
			if ss.Global[k], err = export.FromSym(e); err != nil {
				return nil, err
			}
		}
		ps.Sites = append(ps.Sites, ss)
	}
	return ps, nil
}
