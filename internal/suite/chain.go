package suite

import (
	"fmt"
	"strings"
)

// DoublingChain returns a program whose procedure CHAIN doubles its
// formal d times (K1 = K0 + K0, …, Kd = Kd-1 + Kd-1) and passes Kd to
// SINK. MAIN calls CHAIN with 1, so under polynomial jump functions
// SINK's formal is the constant 2^d. The jump function is a DAG of d
// operator nodes whose tree has 2^d leaves: a stress input for
// symbolic-expression growth, a few hundred bytes long.
func DoublingChain(d int) string {
	var b strings.Builder
	b.WriteString("PROGRAM MAIN\n  INTEGER N\n  N = 1\n  CALL CHAIN(N)\nEND\n\n")
	b.WriteString("SUBROUTINE CHAIN(K0)\n  INTEGER K0\n")
	for i := 1; i <= d; i++ {
		fmt.Fprintf(&b, "  K%d = K%d + K%d\n", i, i-1, i-1)
	}
	fmt.Fprintf(&b, "  CALL SINK(K%d)\n  RETURN\nEND\n\n", d)
	b.WriteString("SUBROUTINE SINK(M)\n  INTEGER M, R\n  R = M\n  RETURN\nEND\n")
	return b.String()
}
