package core

import (
	"slices"
	"sync"

	"ipcp/internal/ir"
	"ipcp/internal/ir/irbuild"
	"ipcp/internal/mf/sema"
	"ipcp/internal/par"
	"ipcp/internal/pass"
)

// AnalyzeMatrix analyzes one program under every configuration of the
// matrix, fanning the work out over a bounded worker pool (workers <= 0
// means one per CPU). The source program is lowered once, and the
// configurations share what only reads it:
//
//   - one SSA program per MOD setting: SSA construction and the
//     substitution tallies read only the MOD oracle, so a matrix with
//     both settings converts the lowering and one deep copy of it;
//   - one stage-1 product (value numbering and return jump functions)
//     per Stage1Key, built over its MOD setting's SSA program: the
//     products with return jump functions on and off share that
//     program, and may be built at the same time;
//   - a Complete configuration's first round, which joins the product
//     of its key, since dead-code elimination only reads the program
//     it cleans; its later rounds run over fresh programs of its own.
//
// The first configuration that needs a shared product builds it inside
// its own propagate row, and the others wait for it, so that row
// carries the shared time. Results arrive in configuration order and
// are identical to running Analyze per configuration, pass traces
// included apart from their wall-clock Nanos. The determinism tests
// assert it across the full config matrix.
func AnalyzeMatrix(sp *sema.Program, cfgs []Config, workers int) []*Result {
	out, err := AnalyzeMatrixErr(sp, cfgs, workers)
	if err != nil {
		panic("core: AnalyzeMatrix with a Cancel hook: " + err.Error())
	}
	return out
}

// AnalyzeMatrixErr is AnalyzeMatrix for cancellable runs: if any
// configuration's Cancel hook fires, the whole matrix is abandoned and
// the lowest-indexed error is returned (results are nil). With nil
// Cancel hooks it never fails.
func AnalyzeMatrixErr(sp *sema.Program, cfgs []Config, workers int) ([]*Result, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	out, _, err := analyzeMatrix(sp, cfgs, workers, false)
	return out, err
}

// AnalyzeMatrixWithBaseline is AnalyzeMatrix plus the intraprocedural
// baseline of AnalyzeIntraprocedural (Table 3, column 4), taken from
// the same lowering: the baseline's SCCP only reads the program in SSA
// form under MOD information, so it counts over the SSA program the
// configurations with MOD share, after they finish. When no
// configuration enables MOD, the baseline converts that program itself.
// cfgs must not carry Cancel hooks.
func AnalyzeMatrixWithBaseline(sp *sema.Program, cfgs []Config, workers int) ([]*Result, *IntraResult) {
	out, intra, err := analyzeMatrix(sp, cfgs, workers, true)
	if err != nil {
		panic("core: AnalyzeMatrixWithBaseline with a Cancel hook: " + err.Error())
	}
	return out, intra
}

// analyzeMatrix runs the matrix over one lowering of sp and, when
// baseline is set, counts the intraprocedural baseline over its MOD
// SSA program.
func analyzeMatrix(sp *sema.Program, cfgs []Config, workers int, baseline bool) ([]*Result, *IntraResult, error) {
	var mods []bool
	for _, cfg := range cfgs {
		if !slices.Contains(mods, cfg.MOD) {
			mods = append(mods, cfg.MOD)
		}
	}
	if baseline && !slices.Contains(mods, true) {
		mods = append(mods, true)
	}
	// BuildSSA rewrites a program in place, so a second MOD setting gets
	// a copy of the lowering, made before either conversion starts.
	base := irbuild.Build(sp)
	pre := pass.SizeOf(base)
	progs := make(map[bool]*ir.Program, len(mods))
	forms := make(map[bool]*shared[*ssaForm], len(mods))
	for k, mod := range mods {
		prog := base
		if k < len(mods)-1 {
			prog = ir.CloneProgram(base)
		}
		progs[mod] = prog
		forms[mod] = &shared[*ssaForm]{build: func(workers int) *ssaForm {
			f := newSSAForm(prog, mod, nil, nil, nil, false)
			f.buildSSA(workers)
			return f
		}}
	}
	products := make(map[Stage1Key]*shared[*stage1])
	members := make([]*member, len(cfgs))
	// The first member of each key starts before the rest, so the
	// products build side by side instead of one after another behind
	// the members that wait for them.
	var firsts, rest []int
	for i, cfg := range cfgs {
		key := cfg.Stage1Key()
		product := products[key]
		if product == nil {
			form := forms[key.MOD]
			product = &shared[*stage1]{build: func(workers int) *stage1 {
				s := newStage1(form.get(workers), key.ReturnJFs)
				s.stage1ReturnJFs(workers)
				return s
			}}
			products[key] = product
			firsts = append(firsts, i)
		} else {
			rest = append(rest, i)
		}
		members[i] = &member{pre: pre, product: product}
	}

	out := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	order := append(firsts, rest...)
	par.For(workers, len(order), func(k int) {
		i := order[k]
		out[i], _, errs[i] = analyze(progs[cfgs[i].MOD], cfgs[i], members[i], nil)
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, invariant(err)
		}
	}
	var intra *IntraResult
	if baseline {
		f := forms[true].get(1)
		intra = intraprocedural(f.prog, f.oracle)
	}
	return out, intra, nil
}

// A member is one matrix configuration's share: the size of the
// lowering, which its first row reports, and the stage-1 product of its
// key.
type member struct {
	pre     pass.Size
	product *shared[*stage1]
}

// startSize is the size the first row of a run over prog reports:
// prog's own outside a matrix, where prog is still pre-SSA, and the
// lowering's before SSA construction for a member, whose prog another
// member may already have converted.
func (m *member) startSize(prog *ir.Program) pass.Size {
	if m == nil {
		return pass.SizeOf(prog)
	}
	return m.pre
}

// shared is a product matrix members share: the first get builds it,
// with that caller's worker count, and every other get waits for it.
// Building never fails, so no error travels with it.
type shared[T any] struct {
	once  sync.Once
	build func(workers int) T
	val   T
}

func (s *shared[T]) get(workers int) T {
	s.once.Do(func() { s.val = s.build(workers) })
	return s.val
}
