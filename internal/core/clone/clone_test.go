package clone

import (
	"reflect"
	"testing"

	"ipcp/internal/core"
	"ipcp/internal/core/jump"
	"ipcp/internal/mf/parser"
	"ipcp/internal/mf/sema"
	"ipcp/internal/pass"
	"ipcp/internal/suite"
)

func analyze(t *testing.T, src string) (*sema.Program, *core.Result) {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sp, err := sema.Analyze(f)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	cfg := core.Config{Jump: jump.Polynomial, ReturnJFs: true, MOD: true}
	return sp, core.Analyze(sp, cfg)
}

// Two call sites with different constants: the meet destroys both, and
// cloning recovers them.
const conflictSrc = `
PROGRAM MAIN
  CALL KERNEL(64)
  CALL KERNEL(128)
END
SUBROUTINE KERNEL(N)
  INTEGER N, I, S
  S = 0
  DO I = 1, N
    S = S + I
  ENDDO
  RETURN
END
`

func TestCloningRecoversConflictingConstants(t *testing.T) {
	_, base := analyze(t, conflictSrc)
	kernel := base.Procs["KERNEL"]
	if len(kernel.Constants) != 0 {
		t.Fatalf("base analysis should lose N to the meet: %v", kernel.Constants)
	}

	cfg := core.Config{Jump: jump.Polynomial, ReturnJFs: true, MOD: true}
	out := AndAnalyze(base, cfg, Options{})
	if out.TotalClones != 1 {
		t.Fatalf("clones = %d, want 1 (two versions total)", out.TotalClones)
	}
	// Both versions now hold their own constant.
	orig := out.Final.Procs["KERNEL"]
	cl := out.Final.Procs["KERNEL_C1"]
	if orig == nil || cl == nil {
		t.Fatalf("missing versions: %v", out.Final.Procs)
	}
	vals := map[int64]bool{}
	for _, pr := range []*core.ProcResult{orig, cl} {
		if len(pr.Constants) != 1 {
			t.Fatalf("%s constants: %v", pr.Name, pr.Constants)
		}
		vals[pr.Constants[0].Value] = true
	}
	if !vals[64] || !vals[128] {
		t.Fatalf("expected 64 and 128 across versions, got %v", vals)
	}
	if out.Final.TotalSubstituted <= base.TotalSubstituted {
		t.Fatalf("cloning should increase substitutions: %d vs %d",
			out.Final.TotalSubstituted, base.TotalSubstituted)
	}
}

func TestCloningRespectsVersionBudget(t *testing.T) {
	_, base := analyze(t, `
PROGRAM MAIN
  CALL K(1)
  CALL K(2)
  CALL K(3)
  CALL K(4)
  CALL K(5)
  CALL K(6)
END
SUBROUTINE K(N)
  INTEGER N, W
  W = N
  RETURN
END
`)
	np, stats := Apply(base, Options{MaxVersionsPerProc: 4})
	// Six distinct signatures exceed the budget: no cloning.
	if stats.ClonesCreated != 0 {
		t.Fatalf("budget exceeded but %d clones created", stats.ClonesCreated)
	}
	if len(np.Procs) != len(base.Prog.Procs) {
		t.Fatalf("program should be an unchanged copy")
	}
}

func TestCloningSkipsUniformSites(t *testing.T) {
	// All sites agree: nothing to recover, no clones.
	_, base := analyze(t, `
PROGRAM MAIN
  CALL K(7)
  CALL K(7)
END
SUBROUTINE K(N)
  INTEGER N, W
  W = N
  RETURN
END
`)
	if v, ok := constOf(base, "K", "N"); !ok || v != 7 {
		t.Fatalf("K.N should already be 7")
	}
	np, stats := Apply(base, Options{})
	if stats.ClonesCreated != 0 {
		t.Fatalf("uniform sites must not clone, got %d", stats.ClonesCreated)
	}
	if np != base.Prog {
		t.Fatal("Apply copied a program it left unchanged")
	}
}

func constOf(res *core.Result, proc, name string) (int64, bool) {
	pr := res.Procs[proc]
	if pr == nil {
		return 0, false
	}
	for _, c := range pr.Constants {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Cloning cascades: specializing a middle procedure exposes constants
// one level deeper on the next round.
func TestCloningIterates(t *testing.T) {
	_, base := analyze(t, `
PROGRAM MAIN
  CALL MID(10)
  CALL MID(20)
END
SUBROUTINE MID(N)
  INTEGER N
  CALL LEAF(N)
  RETURN
END
SUBROUTINE LEAF(M)
  INTEGER M, W
  W = M * 2
  RETURN
END
`)
	cfg := core.Config{Jump: jump.Polynomial, ReturnJFs: true, MOD: true}
	out := AndAnalyze(base, cfg, Options{})
	if out.Rounds < 2 {
		t.Fatalf("expected a cascading second round, got %d", out.Rounds)
	}
	// After convergence every LEAF version sees a constant.
	found := 0
	for name, pr := range out.Final.Procs {
		if name == "LEAF" || name == "LEAF_C1" {
			if len(pr.Constants) == 1 {
				found++
			}
		}
	}
	if found != 2 {
		t.Fatalf("both LEAF versions should hold constants, got %d", found)
	}
}

// The suite's shared sinks (deliberately fed conflicting constants)
// are exactly what cloning specializes; the counts must go up on the
// programs that have them and never go down anywhere.
func TestCloningOnSuite(t *testing.T) {
	cfg := core.Config{Jump: jump.Polynomial, ReturnJFs: true, MOD: true}
	improved := 0
	for _, name := range suite.Names() {
		src := suite.Generate(name, 2).Source
		f, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := sema.Analyze(f)
		if err != nil {
			t.Fatal(err)
		}
		base := core.Analyze(sp, cfg)
		out := AndAnalyze(base, cfg, Options{MaxVersionsPerProc: 16, MaxRounds: 2})
		if out.Final.TotalSubstituted < base.TotalSubstituted {
			t.Errorf("%s: cloning lost substitutions: %d -> %d",
				name, base.TotalSubstituted, out.Final.TotalSubstituted)
		}
		if out.Final.TotalSubstituted > base.TotalSubstituted {
			improved++
		}
	}
	if improved < 4 {
		t.Errorf("cloning should improve several suite programs, improved %d", improved)
	}
}

// cascadeLoopSrc is TestCloningIterates's cascade with a DO loop in each
// cloned procedure, so every propagation inserts phis and grows the
// instruction count: a row sized before SSA construction differs from
// one sized after it.
const cascadeLoopSrc = `
PROGRAM MAIN
  CALL MID(10)
  CALL MID(20)
END
SUBROUTINE MID(N)
  INTEGER N, I, S
  S = 0
  DO I = 1, N
    S = S + I
  ENDDO
  CALL LEAF(N)
  RETURN
END
SUBROUTINE LEAF(M)
  INTEGER M, J, W
  W = 0
  DO J = 1, M
    W = W + J
  ENDDO
  RETURN
END
`

// TestCloningTrace pins the pass trace of clone-and-analyze, every Stat
// field but the wall-clock Nanos. The base analysis is reused for round
// 1, each later round re-propagates the program the previous round
// replaced before cloning it (so each clone row is sized after SSA
// construction), a round's changed flag is the clone pass's own (a
// propagation always reports a change), and a run cut off by its round
// budget ends with one propagation of the final program outside any
// round.
func TestCloningTrace(t *testing.T) {
	cfg := core.Config{Jump: jump.Polynomial, ReturnJFs: true, MOD: true}
	cases := []struct {
		name           string
		maxRounds      int
		rounds, clones int
		want           []pass.Stat
	}{
		{"converges", 0, 2, 2, []pass.Stat{
			{Pass: "clone", Round: 1, Changed: true, ProcsBefore: 3, BlocksBefore: 9, InstrsBefore: 28, Procs: 4, Blocks: 13, Instrs: 35},
			{Pass: "propagate", Round: 2, Changed: true, ProcsBefore: 4, BlocksBefore: 13, InstrsBefore: 35, Procs: 4, Blocks: 13, Instrs: 41},
			{Pass: "clone", Round: 2, Changed: true, ProcsBefore: 4, BlocksBefore: 13, InstrsBefore: 41, Procs: 5, Blocks: 17, Instrs: 45},
			{Pass: "propagate", Round: 3, Changed: true, ProcsBefore: 5, BlocksBefore: 17, InstrsBefore: 45, Procs: 5, Blocks: 17, Instrs: 53},
			{Pass: "clone", Round: 3, ProcsBefore: 5, BlocksBefore: 17, InstrsBefore: 53, Procs: 5, Blocks: 17, Instrs: 53},
			{Pass: "clone", Changed: true, Fixpoint: true, Rounds: 2, ProcsBefore: 3, BlocksBefore: 9, InstrsBefore: 28, Procs: 5, Blocks: 17, Instrs: 53},
		}},
		{"budget of one round", 1, 1, 1, []pass.Stat{
			{Pass: "clone", Round: 1, Changed: true, ProcsBefore: 3, BlocksBefore: 9, InstrsBefore: 28, Procs: 4, Blocks: 13, Instrs: 35},
			{Pass: "clone", Changed: true, Fixpoint: true, Rounds: 1, ProcsBefore: 3, BlocksBefore: 9, InstrsBefore: 28, Procs: 4, Blocks: 13, Instrs: 35},
			{Pass: "propagate", Changed: true, ProcsBefore: 4, BlocksBefore: 13, InstrsBefore: 35, Procs: 4, Blocks: 13, Instrs: 41},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, base := analyze(t, cascadeLoopSrc)
			out := AndAnalyze(base, cfg, Options{MaxRounds: tc.maxRounds})
			if out.Rounds != tc.rounds || out.TotalClones != tc.clones {
				t.Fatalf("rounds, clones = %d, %d; want %d, %d", out.Rounds, out.TotalClones, tc.rounds, tc.clones)
			}
			got := append([]pass.Stat(nil), out.Final.Stats.Passes...)
			for i := range got {
				got[i].Nanos = 0
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("trace:\n got %+v\nwant %+v", got, tc.want)
			}
			if out.Final.Prog.ProcByName["LEAF"] == nil || len(out.Final.Prog.Procs) != 3+tc.clones {
				t.Fatalf("final analysis is not of the final program: %d procedures", len(out.Final.Prog.Procs))
			}
		})
	}
}

// TestNonPositiveOptionsMeanDefault pins that a zero or negative
// option takes its default, field by field. cascadeLoopSrc needs two
// cloning rounds and two clones, so an option read as "no rounds" or
// "no extra versions" would clone nothing.
func TestNonPositiveOptionsMeanDefault(t *testing.T) {
	cfg := core.Config{Jump: jump.Polynomial, ReturnJFs: true, MOD: true}
	cases := []struct {
		opts, want Options
	}{
		{Options{MaxVersionsPerProc: 0, MaxRounds: 5}, Options{MaxVersionsPerProc: 4, MaxRounds: 5}},
		{Options{MaxVersionsPerProc: -1, MaxRounds: 5}, Options{MaxVersionsPerProc: 4, MaxRounds: 5}},
		{Options{MaxVersionsPerProc: 8, MaxRounds: 0}, Options{MaxVersionsPerProc: 8, MaxRounds: 3}},
		{Options{MaxVersionsPerProc: 8, MaxRounds: -1}, Options{MaxVersionsPerProc: 8, MaxRounds: 3}},
	}
	for _, tc := range cases {
		got := tc.opts
		got.fill()
		if got != tc.want {
			t.Errorf("%+v fills to %+v, want %+v", tc.opts, got, tc.want)
		}
		_, base := analyze(t, cascadeLoopSrc)
		out := AndAnalyze(base, cfg, tc.opts)
		if out.Rounds != 2 || out.TotalClones != 2 {
			t.Errorf("%+v: rounds, clones = %d, %d; want 2, 2", tc.opts, out.Rounds, out.TotalClones)
		}
	}
}
