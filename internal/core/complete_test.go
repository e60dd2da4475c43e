package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipcp/internal/analysis/dce"
	"ipcp/internal/analysis/sccp"
	"ipcp/internal/core/jump"
	"ipcp/internal/ir"
	"ipcp/internal/ir/irbuild"
	"ipcp/internal/mf/sema"
	"ipcp/internal/suite"
)

// runAnalyze runs the unexported entry point, which returns the errors
// the public ones turn into panics.
func runAnalyze(sp *sema.Program, cfg Config) (*Result, error) {
	res, _, err := analyze(irbuild.Build(sp), cfg, nil, nil)
	return res, err
}

// noDeadCodeSrc gives dead-code elimination nothing to remove, so
// complete propagation's first dce round ends the loop.
const noDeadCodeSrc = `
PROGRAM MAIN
  CALL S(42)
END
SUBROUTINE S(N)
  INTEGER N
  WRITE(*,*) N
END
`

// TestDebugCatchesCorruptingPass is the seeded-fault proof of Debug
// verification: a dce step whose output breaks an IR invariant must
// fail the run with an error naming that step, and a run without Debug
// must not notice. The fault lands in the loop's last step, so nothing
// runs over the corrupted program afterwards.
func TestDebugCatchesCorruptingPass(t *testing.T) {
	dceFault = func(prog *ir.Program) { prog.Procs[0].Entry = nil }
	t.Cleanup(func() { dceFault = nil })
	sp := mustSema(t, noDeadCodeSrc)
	cfg := Config{Jump: jump.PassThrough, ReturnJFs: true, MOD: true, Complete: true}

	res, err := runAnalyze(sp, cfg)
	if err != nil {
		t.Fatalf("run without Debug noticed the corruption: %v", err)
	}
	if res.DCERounds != 0 {
		t.Fatalf("DCERounds = %d, want 0: the corrupting round must be the last", res.DCERounds)
	}

	cfg.Debug = true
	_, err = runAnalyze(sp, cfg)
	if err == nil {
		t.Fatal("Debug run did not catch the corrupting step")
	}
	if !strings.Contains(err.Error(), `pass "dce" corrupted the IR`) {
		t.Fatalf("error does not name the corrupting step: %v", err)
	}
}

// twoRoundSrc needs two rounds of complete propagation that remove
// code: round one folds A's branch with the propagated K=1, which
// makes B's argument constant; round two then folds B's branch. A
// third round finds nothing and ends the loop.
const twoRoundSrc = `
PROGRAM MAIN
  INTEGER I
  I = 1
  CALL A(I)
END

SUBROUTINE A(K)
  INTEGER K, X
  IF (K .EQ. 1) THEN
    X = 2
  ELSE
    X = 3
  ENDIF
  CALL B(X)
END

SUBROUTINE B(M)
  INTEGER M, Y
  IF (M .EQ. 2) THEN
    Y = 1
  ELSE
    Y = 9
  ENDIF
  WRITE(*,*) Y
END
`

// TestCompleteLoopBound pins the round bound of complete propagation:
// the round that removes nothing must fit under it too, so twoRoundSrc
// fails with ErrNoFixpoint under a bound of one or two rounds and
// converges under three.
func TestCompleteLoopBound(t *testing.T) {
	sp := mustSema(t, twoRoundSrc)
	cfg := Config{Jump: jump.PassThrough, ReturnJFs: true, MOD: true, Complete: true}
	old := maxDCERounds
	t.Cleanup(func() { maxDCERounds = old })
	for _, bound := range []int{1, 2} {
		maxDCERounds = bound
		if _, err := runAnalyze(sp, cfg); !errors.Is(err, ErrNoFixpoint) {
			t.Errorf("bound %d: err = %v, want ErrNoFixpoint", bound, err)
		}
	}
	maxDCERounds = 3
	res, err := runAnalyze(sp, cfg)
	if err != nil || res.DCERounds != 2 {
		t.Fatalf("bound 3: err = %v, DCERounds = %d; want nil, 2", err, res.DCERounds)
	}
}

// TestEvalSite evaluates call sites on demand: a reachable caller's
// site yields the values that flowed along it under the final VAL
// sets, and an unreachable caller's site yields no vector.
func TestEvalSite(t *testing.T) {
	res := analyzeSrc(t, `
PROGRAM MAIN
  CALL S(7)
END
SUBROUTINE S(N)
  INTEGER N
  CALL T(N, 3)
END
SUBROUTINE T(A, B)
  INTEGER A, B
  WRITE(*,*) A, B
END
SUBROUTINE DEAD
  CALL T(1, 2)
END
`, cfgAll(jump.PassThrough))
	callIn := func(name string) (*ir.Proc, *ir.Instr) {
		proc := res.Prog.ProcByName[name]
		for _, b := range proc.Blocks {
			for _, i := range b.Instrs {
				if i.Op == ir.OpCall {
					return proc, i
				}
			}
		}
		t.Fatalf("no call in %s", name)
		return nil, nil
	}

	sv := res.EvalSite(callIn("S"))
	if sv == nil || len(sv.Formals) != 2 {
		t.Fatalf("reachable site: %+v, want two formal values", sv)
	}
	for i, want := range []int64{7, 3} {
		if c, ok := sv.Formals[i].IntConst(); !ok || c != want {
			t.Errorf("formal %d = %v, want %d", i, sv.Formals[i], want)
		}
	}
	if sv := res.EvalSite(callIn("DEAD")); sv != nil {
		t.Errorf("unreachable caller's site evaluated to %+v, want nil", sv)
	}
}

// TestDeadCodeDecidedBeforeCopy checks that eliminateDeadCode's
// decision, made before it copies anything, is exactly the one
// dce.Transform's copy reports: per procedure, dce.Dead.Changes equals
// Transform's Stats.Changed, over every round of complete propagation
// on the suite, random programs and the corpus. Some procedures change
// only because a jump chain merges, the case Changes reads from the
// control-flow graph, and the test requires that it occurs.
func TestDeadCodeDecidedBeforeCopy(t *testing.T) {
	var srcs []string
	for _, name := range suite.Names() {
		srcs = append(srcs, suite.Generate(name, 1).Source)
	}
	for seed := int64(0); seed < 30; seed++ {
		srcs = append(srcs, suite.Random(seed, 4).Source)
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.f"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, string(data))
	}
	srcs = append(srcs, twoRoundSrc, noDeadCodeSrc)
	var changed, unchanged, mergeOnly int
	for _, src := range srcs {
		sp := mustSema(t, src)
		for _, mod := range []bool{false, true} {
			cfg := Config{Jump: jump.Polynomial, ReturnJFs: true, MOD: mod}
			prog := irbuild.Build(sp)
			for round := 1; ; round++ {
				res, _, err := analyze(prog, cfg, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				some := false
				for _, proc := range res.Prog.Procs {
					sres := sccp.Run(proc, constantsSeed(proc, res.Procs[proc.Name]), nil)
					_, st := dce.Transform(proc, sres, nil)
					if got := dce.Find(proc, sres, nil).Changes(); got != st.Changed {
						t.Fatalf("round %d, %s: Changes() = %t, Transform says %+v", round, proc.Name, got, st)
					}
					switch {
					case !st.Changed:
						unchanged++
					case st.InstrsRemoved == 0 && st.BranchesFolded == 0:
						mergeOnly++
						fallthrough
					default:
						changed++
					}
					some = some || st.Changed
				}
				np, ch := eliminateDeadCode(res)
				if ch != some || (np == res.Prog) == ch {
					t.Fatalf("round %d: eliminateDeadCode changed = %t, same program = %t; procedures changed: %t", round, ch, np == res.Prog, some)
				}
				if !ch {
					break
				}
				if round == maxDCERounds {
					t.Fatal("complete propagation did not converge")
				}
				prog = np
			}
		}
	}
	if changed == 0 || unchanged == 0 || mergeOnly == 0 {
		t.Fatalf("procedures changed %d (by a merge alone %d), unchanged %d: every case must occur", changed, mergeOnly, unchanged)
	}
	t.Logf("procedures changed %d (by a merge alone %d), unchanged %d", changed, mergeOnly, unchanged)
}
