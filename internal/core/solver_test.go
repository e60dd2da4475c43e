package core

import (
	"slices"
	"testing"

	"ipcp/internal/core/jump"
	"ipcp/internal/core/lattice"
	"ipcp/internal/ir/irbuild"
	"ipcp/internal/mf/parser"
	"ipcp/internal/mf/sema"
	"ipcp/internal/suite"
	"ipcp/internal/sym"
)

// A procedure with no formals and no globals never has its VAL set
// lowered, but its call sites must still fire (regression: the original
// worklist only enqueued procedures whose VAL sets changed).
func TestSolverVisitsParameterlessProcedures(t *testing.T) {
	res := analyzeSrc(t, `
PROGRAM MAIN
  CALL MIDDLE
END
SUBROUTINE MIDDLE
  CALL LEAF(9)
  RETURN
END
SUBROUTINE LEAF(N)
  INTEGER N, W
  W = N
  RETURN
END
`, cfgAll(jump.Polynomial))
	if v, ok := constVal(res, "LEAF", "N"); !ok || v != 9 {
		t.Fatalf("LEAF.N = %v,%v want 9 (parameterless MIDDLE must be visited)", v, ok)
	}
}

// Call sites inside procedures unreachable from main must not
// contribute constants (the paper: ⊤ only if never called).
func TestDeadCallSitesDoNotFire(t *testing.T) {
	res := analyzeSrc(t, `
PROGRAM MAIN
  INTEGER X
  X = 0
END
SUBROUTINE DEADCALLER
  CALL VICTIM(5)
  RETURN
END
SUBROUTINE VICTIM(N)
  INTEGER N, W
  W = N
  RETURN
END
`, cfgAll(jump.Polynomial))
	pr := res.Procs["VICTIM"]
	if !pr.FormalVals[0].IsTop() {
		t.Fatalf("VICTIM.N = %v, want ⊤ (only a dead caller passes it)", pr.FormalVals[0])
	}
}

// revisitSrc makes the simple worklist visit MID three times: its
// formal lowers ⊤ → 1 after MID's first visit (from TOP1) and 1 → ⊥
// after its second (from TOP2, whose formal K lowers, through X, only
// after TOP2's first visit). Each visit re-evaluates MID's four constant
// jump functions, so the worklist exceeds the dependence policy's
// evaluation bound, which re-evaluates only TOP2's pass-through.
const revisitSrc = `
PROGRAM MAIN
  CALL TOP1(1)
  CALL X(2)
END
SUBROUTINE TOP2(K)
  INTEGER K
  CALL MID(K)
  RETURN
END
SUBROUTINE MID(N)
  INTEGER N, W
  W = N
  CALL LEAF(3)
  CALL LEAF(3)
  CALL LEAF(3)
  CALL LEAF(3)
  RETURN
END
SUBROUTINE TOP1(K)
  INTEGER K
  CALL MID(K)
  RETURN
END
SUBROUTINE X(J)
  INTEGER J
  CALL TOP2(J)
  RETURN
END
SUBROUTINE LEAF(M)
  INTEGER M, W
  W = M
  RETURN
END
`

// evaluationBound solves sp under cfg and returns the jump-function
// evaluations stage 3 made alongside Σ(1 + 2·|support|) over the
// instances the engine built.
func evaluationBound(t *testing.T, sp *sema.Program, cfg Config) (evals, bound int) {
	t.Helper()
	s1 := newStage1(newSSAForm(irbuild.Build(sp), cfg.MOD, nil, nil, nil, false), cfg.ReturnJFs)
	s1.buildSSA(1)
	s1.stage1ReturnJFs(1)
	p := newPropagation(s1, cfg)
	p.stage2ForwardJFs()
	if err := p.stage3Solve(); err != nil {
		t.Fatal(err)
	}
	for _, in := range p.newSolver().insts {
		leaves, _ := sym.Support(in.expr)
		bound += 1 + 2*len(leaves)
	}
	return p.jfEvals, bound
}

// The dependence-driven solver evaluates each jump-function instance
// at most 1 + 2·|support| times: once from the seed, then once per
// lowering of a support member, and each cell lowers at most twice.
// revisitSrc shows the bound has teeth: the simple worklist, which
// re-evaluates all of a procedure's sites whenever one of its cells
// lowers, exceeds it there.
func TestDependenceSolverEvaluationBound(t *testing.T) {
	for _, name := range suite.Names() {
		sp := mustSema(t, suite.Generate(name, 4).Source)
		for _, kind := range jump.Kinds {
			cfg := Config{Jump: kind, ReturnJFs: true, MOD: true, DependenceSolver: true}
			if evals, bound := evaluationBound(t, sp, cfg); evals > bound {
				t.Errorf("%s/%v: dependence solver made %d evaluations, bound Σ(1+2·|support|) = %d",
					name, kind, evals, bound)
			}
		}
	}
	sp := mustSema(t, revisitSrc)
	cfg := Config{Jump: jump.PassThrough, ReturnJFs: true, MOD: true}
	if evals, bound := evaluationBound(t, sp, cfg); evals <= bound {
		t.Errorf("revisit: worklist made %d evaluations, want more than the bound %d", evals, bound)
	}
	cfg.DependenceSolver = true
	if evals, bound := evaluationBound(t, sp, cfg); evals > bound {
		t.Errorf("revisit: dependence solver made %d evaluations, bound %d", evals, bound)
	}
}

// reversedSema analyzes src with its program units in reverse order, so
// every procedure is listed after its callees. The generated programs
// list callers first, and a FIFO solve over that order lowers each cell
// before any item reading it is popped, so only the reversed order
// exercises the wake-ups.
func reversedSema(t *testing.T, src string) *sema.Program {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	slices.Reverse(f.Units)
	sp, err := sema.Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// The dependence-driven solver must compute exactly the same VAL cells
// and substitution counts as the simple worklist, and neither may
// depend on the order the procedures are listed in. Over the units in
// reverse order, lowered cells must wake items that already ran: the
// dependence policy's larger pass count there confirms the wake-ups
// were exercised.
func TestDependenceSolverEquivalence(t *testing.T) {
	var srcs []string
	for _, name := range suite.Names() {
		srcs = append(srcs, suite.Generate(name, 2).Source)
	}
	for seed := int64(1); seed <= 20; seed++ {
		srcs = append(srcs, suite.Random(seed, 8).Source)
	}
	srcs = append(srcs, revisitSrc)
	woken := false
	for n, src := range srcs {
		fwd, rev := mustSema(t, src), reversedSema(t, src)
		for _, kind := range jump.Kinds {
			cfg := Config{Jump: kind, ReturnJFs: true, MOD: true}
			want := Analyze(fwd, cfg)
			depPasses := make(map[*sema.Program]int)
			for _, sp := range []*sema.Program{fwd, rev} {
				for _, dep := range []bool{false, true} {
					cfg.DependenceSolver = dep
					got := Analyze(sp, cfg)
					if got.TotalSubstituted != want.TotalSubstituted {
						t.Errorf("program %d/%v/dep=%v: %d substitutions, want %d",
							n, kind, dep, got.TotalSubstituted, want.TotalSubstituted)
					}
					for name, w := range want.Procs {
						g := got.Procs[name]
						if !sameCells(g.FormalVals, w.FormalVals) || !sameCells(g.GlobalVals, w.GlobalVals) {
							t.Errorf("program %d/%v/dep=%v/%s: cells %v %v, want %v %v",
								n, kind, dep, name, g.FormalVals, g.GlobalVals, w.FormalVals, w.GlobalVals)
						}
					}
					if dep {
						depPasses[sp] = got.SolverPasses
					}
				}
			}
			woken = woken || depPasses[rev] > depPasses[fwd]
		}
	}
	if !woken {
		t.Error("no reversed dependence solve re-enqueued an instance: the wake-ups went untested")
	}
}

// sameCells reports whether two VAL vectors agree cell by cell.
func sameCells(a, b []lattice.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func TestDependenceSolverOnCoreScenarios(t *testing.T) {
	for _, src := range []string{literalSrc, passThroughSrc, polynomialSrc, oceanSrc, modSrc} {
		sp := mustSema(t, src)
		for _, kind := range jump.Kinds {
			a := Analyze(sp, Config{Jump: kind, ReturnJFs: true, MOD: true})
			b := Analyze(sp, Config{Jump: kind, ReturnJFs: true, MOD: true, DependenceSolver: true})
			if a.TotalSubstituted != b.TotalSubstituted {
				t.Errorf("%v: %d vs %d", kind, a.TotalSubstituted, b.TotalSubstituted)
			}
		}
	}
}
