package interp

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"ipcp/internal/ir"
	"ipcp/internal/ir/irbuild"
	"ipcp/internal/mf/parser"
	"ipcp/internal/mf/sema"
)

func build(t *testing.T, src string) *ir.Program {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sp, err := sema.Analyze(f)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	return irbuild.Build(sp)
}

func run(t *testing.T, src string) *Result {
	t.Helper()
	res := Run(build(t, src), Options{})
	if res.Err != nil {
		t.Fatalf("runtime error: %v", res.Err)
	}
	return res
}

func TestArithmeticAndOutput(t *testing.T) {
	res := run(t, `
PROGRAM P
  INTEGER A, B
  A = 6*7
  B = MOD(A, 10) + MAX(1, 2, 3) - MIN(4, 5) + IABS(-2) + 2**5
  WRITE(*,*) A, B
END
`)
	if len(res.Output) != 2 || res.Output[0] != 42 || res.Output[1] != 2+3-4+2+32 {
		t.Fatalf("output: %v", res.Output)
	}
}

func TestFactorialFunction(t *testing.T) {
	res := run(t, `
PROGRAM P
  INTEGER R
  R = FACT(6)
  WRITE(*,*) R
END
INTEGER FUNCTION FACT(N)
  INTEGER N
  IF (N .LE. 1) THEN
    FACT = 1
  ELSE
    FACT = N * FACT(N-1)
  ENDIF
  RETURN
END
`)
	if len(res.Output) != 1 || res.Output[0] != 720 {
		t.Fatalf("6! = %v", res.Output)
	}
}

func TestByReferenceMutation(t *testing.T) {
	res := run(t, `
PROGRAM P
  INTEGER X
  X = 1
  CALL BUMP(X)
  CALL BUMP(X)
  WRITE(*,*) X
END
SUBROUTINE BUMP(V)
  INTEGER V
  V = V + 10
  RETURN
END
`)
	if res.Output[0] != 21 {
		t.Fatalf("by-ref mutation: %v", res.Output)
	}
}

func TestExpressionActualIsByValue(t *testing.T) {
	res := run(t, `
PROGRAM P
  INTEGER X
  X = 5
  CALL BUMP(X + 0)
  WRITE(*,*) X
END
SUBROUTINE BUMP(V)
  INTEGER V
  V = V + 10
  RETURN
END
`)
	if res.Output[0] != 5 {
		t.Fatalf("temp actual leaked back: %v", res.Output)
	}
}

func TestLoopsAndArrays(t *testing.T) {
	res := run(t, `
PROGRAM P
  INTEGER A(10), I, S
  DO I = 1, 10
    A(I) = I*I
  ENDDO
  S = 0
  DO I = 10, 1, -1
    S = S + A(I)
  ENDDO
  WRITE(*,*) S
END
`)
	if res.Output[0] != 385 {
		t.Fatalf("sum of squares: %v", res.Output)
	}
}

func TestTwoDimensionalColumnMajor(t *testing.T) {
	res := run(t, `
PROGRAM P
  INTEGER M(3, 2), I, J, S
  DO J = 1, 2
    DO I = 1, 3
      M(I, J) = I + 10*J
    ENDDO
  ENDDO
  S = M(1,1) + M(3,1) + M(1,2) + M(3,2)
  WRITE(*,*) S
END
`)
	if res.Output[0] != 11+13+21+23 {
		t.Fatalf("2-D indexing: %v", res.Output)
	}
}

func TestGlobalsSharedAcrossProcs(t *testing.T) {
	res := run(t, `
PROGRAM P
  COMMON /G/ N
  INTEGER N
  N = 5
  CALL DOUBLE
  CALL DOUBLE
  WRITE(*,*) N
END
SUBROUTINE DOUBLE
  COMMON /G/ N
  INTEGER N
  N = N * 2
  RETURN
END
`)
	if res.Output[0] != 20 {
		t.Fatalf("global sharing: %v", res.Output)
	}
}

func TestGotoControlFlow(t *testing.T) {
	res := run(t, `
PROGRAM P
  INTEGER I, S
  S = 0
  I = 0
10 I = I + 1
  S = S + I
  IF (I .LT. 10) GOTO 10
  WRITE(*,*) S
END
`)
	if res.Output[0] != 55 {
		t.Fatalf("goto loop: %v", res.Output)
	}
}

func TestStopTerminates(t *testing.T) {
	res := run(t, `
PROGRAM P
  WRITE(*,*) 1
  STOP
  WRITE(*,*) 2
END
`)
	if !res.Stopped || len(res.Output) != 1 {
		t.Fatalf("STOP handling: stopped=%v out=%v", res.Stopped, res.Output)
	}
}

func TestDivisionByZeroFaults(t *testing.T) {
	prog := build(t, `
PROGRAM P
  INTEGER A, B
  A = 0
  B = 1/A
END
`)
	res := Run(prog, Options{})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "fault") {
		t.Fatalf("expected integer fault, got %v", res.Err)
	}
}

func TestFuelBoundsInfiniteLoops(t *testing.T) {
	prog := build(t, `
PROGRAM P
  INTEGER I
  I = 0
10 I = I + 1
  GOTO 10
END
`)
	res := Run(prog, Options{Fuel: 10_000})
	if !res.FuelExhausted {
		t.Fatal("fuel should run out")
	}
}

// TestRealPowerChargesFuel: a REAL ** runs its multiplications inside
// one instruction, so fuel must be charged for them or a huge exponent
// runs unbounded.
func TestRealPowerChargesFuel(t *testing.T) {
	prog := build(t, `
PROGRAM P
  REAL R
  R = 1.0 ** 3000000000
  WRITE(*,*) R
END
`)
	start := time.Now()
	res := Run(prog, Options{Fuel: 50_000_000})
	if el := time.Since(start); !res.FuelExhausted || el > 100*time.Millisecond {
		t.Errorf("1.0 ** 3000000000: FuelExhausted=%t after %v, want true within 100ms", res.FuelExhausted, el)
	}
	res = run(t, `
PROGRAM P
  REAL R
  INTEGER N
  R = 2.0 ** 10
  N = R
  WRITE(*,*) N
END
`)
	if len(res.Output) != 1 || res.Output[0] != 1024 {
		t.Errorf("2.0 ** 10: %v, want [1024]", res.Output)
	}
}

// TestRealExponents: a REAL exponent may be fractional, so it is
// evaluated with math.Pow, not truncated to an integer multiply count;
// an INTEGER exponent keeps the multiply loop.
func TestRealExponents(t *testing.T) {
	want := strconv.FormatFloat(math.Pow(2, 2.9), 'f', -1, 64)
	res := run(t, `
PROGRAM P
  REAL R, S, T
  R = 4.0 ** 0.5
  S = 2.0 ** 2.9
  T = 2.0 ** 10
  IF (R .EQ. 2.0) THEN
    WRITE(*,*) 1
  ENDIF
  IF (S .EQ. `+want+`) THEN
    WRITE(*,*) 2
  ENDIF
  IF (T .EQ. 1024.0) THEN
    WRITE(*,*) 3
  ENDIF
END
`)
	if fmt.Sprint(res.Output) != "[1 2 3]" {
		t.Errorf("4.0**0.5 == 2, 2.0**2.9 == %s, 2.0**10 == 1024: checks passed %v, want [1 2 3]", want, res.Output)
	}
	res = Run(build(t, `
PROGRAM P
  REAL R
  R = (-8.0) ** (1.0/3.0)
END
`), Options{})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "real power fault") {
		t.Errorf("(-8.0)**(1.0/3.0): err = %v, want a real power fault", res.Err)
	}
}

func TestReadIsDeterministicPerSeed(t *testing.T) {
	src := `
PROGRAM P
  INTEGER A, B
  READ A
  READ B
  WRITE(*,*) A + B
END
`
	a := Run(build(t, src), Options{InputSeed: 7})
	b := Run(build(t, src), Options{InputSeed: 7})
	c := Run(build(t, src), Options{InputSeed: 8})
	if a.Output[0] != b.Output[0] {
		t.Fatal("same seed must give same input")
	}
	_ = c // different seed may or may not differ; just must run
}

func TestObservationsRecordEntries(t *testing.T) {
	prog := build(t, `
PROGRAM P
  CALL S(4)
  CALL S(4)
  CALL S(9)
END
SUBROUTINE S(N)
  INTEGER N, W
  W = N
  RETURN
END
`)
	res := Run(prog, Options{})
	s := prog.ProcByName["S"]
	obs := res.Observations[s]
	if obs == nil || obs.Calls != 3 {
		t.Fatalf("observations: %+v", obs)
	}
	seen := obs.Formals[0]
	if seen.Count != 3 || seen.AllEqual || seen.First != 4 {
		t.Fatalf("formal summary: %+v", seen)
	}
}

func TestDoWhile(t *testing.T) {
	res := run(t, `
PROGRAM P
  INTEGER I, S
  I = 1
  S = 0
  DO WHILE (I .LE. 4)
    S = S + I
    I = I + 1
  ENDDO
  WRITE(*,*) S
END
`)
	if res.Output[0] != 10 {
		t.Fatalf("do while: %v", res.Output)
	}
}

func TestRealArithmetic(t *testing.T) {
	res := run(t, `
PROGRAM P
  REAL X, Y
  INTEGER N
  X = 1.5
  Y = X * 4.0
  N = Y
  WRITE(*,*) N
END
`)
	if res.Output[0] != 6 {
		t.Fatalf("real arithmetic: %v", res.Output)
	}
}
