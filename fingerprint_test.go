package ipcp_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ipcp"
	"ipcp/internal/mf/ast"
	"ipcp/internal/mf/parser"
	"ipcp/internal/mf/sema"
	"ipcp/internal/suite"
)

// TestPrinterFingerprintGolden pins the bytes the AST printer produces
// and the unit fingerprints hashed from them, as SHA-256 digests, for
// every suite program at suite.DefaultScale, doduc at scale 24, every
// testdata/*.f and suite.Random seeds 1–20. Stored summary records and
// snapshots are keyed by these fingerprints, and the edit chains the
// benchmark generates are printed by ast.Format: a printer change that
// moves a digest here orphans every stored cache and changes the
// benchmark's inputs. testdata/printer_fingerprints.txt changes only
// when such a break is intended.
func TestPrinterFingerprintGolden(t *testing.T) {
	want := readGolden(t, "printer_fingerprints.txt")
	got := printerFingerprintLines(t)
	if len(got) != len(want) {
		t.Errorf("rendered %d lines, golden has %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
	if t.Failed() {
		t.Logf("rendered:\n%s", strings.Join(got, "\n"))
	}
}

// printerFingerprintLines renders one line per input: the digest of
// ast.Format of the parsed file, and the digest of the sorted
// "unit fingerprint" pairs of the analyzed program.
func printerFingerprintLines(t *testing.T) []string {
	t.Helper()
	type input struct{ name, src string }
	var inputs []input
	for _, name := range suite.Names() {
		inputs = append(inputs, input{fmt.Sprintf("%s@%d", name, suite.DefaultScale), suite.Generate(name, suite.DefaultScale).Source})
	}
	inputs = append(inputs, input{"doduc@24", suite.Generate("doduc", 24).Source})
	files, err := filepath.Glob(filepath.Join("testdata", "*.f"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{filepath.Base(f), string(data)})
	}
	for seed := int64(1); seed <= 20; seed++ {
		inputs = append(inputs, input{fmt.Sprintf("random-%d", seed), suite.Random(seed, 6).Source})
	}

	lines := make([]string, 0, len(inputs))
	for _, in := range inputs {
		file, err := parser.Parse(in.src)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		printed := sha256.Sum256([]byte(ast.Format(file)))
		sp, err := sema.Analyze(file)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		var pairs []string
		for name, fp := range sp.Fingerprints(1) {
			pairs = append(pairs, name+" "+fp)
		}
		sort.Strings(pairs)
		fps := sha256.Sum256([]byte(strings.Join(pairs, "\n")))
		lines = append(lines, fmt.Sprintf("%s format=%x fingerprints=%x", in.name, printed, fps))
	}
	return lines
}

// formatEditBase and formatEditSource are one program twice: the second
// differs from the first only in layout — indentation, comments and
// blank lines, a `&` continuation, redundant parentheses, lower-case
// keywords and names, and `END name` — so both print the same.
const formatEditBase = `PROGRAM MAIN
  INTEGER N, M, K
  COMMON /G/ GA, GB
  N = 10
  M = 3
  GA = 7
  CALL SETUP(N, M)
  K = IFUN(N)
  CALL WORK(N, K, M)
END

SUBROUTINE SETUP(A, B)
  INTEGER A, B
  COMMON /G/ GA, GB
  GB = A + B*2
  RETURN
END

INTEGER FUNCTION IFUN(X)
  INTEGER X
  IFUN = X*X - 1
  RETURN
END

SUBROUTINE WORK(P, Q, R)
  INTEGER P, Q, R, I, S
  COMMON /G/ GA, GB
  S = 0
  DO I = 1, P
    IF (Q .GT. R .AND. I .NE. 2) THEN
      S = S + (Q - R)*I + GA
    ELSE
      S = S - GB
    ENDIF
  ENDDO
  IF (S .LT. 0) S = 0
  WRITE(*,*) S
END
`

const formatEditSource = `! The main program.
program main
      integer n, m, k
      common /g/ ga, gb

      n = 10   ! ten
      m = (3)
      ga = 7
      call setup(n, &   ! the continuation carries a comment
                 m)
      k = ifun((n))
      call work(n, k, m)
end main


* Sets the second global.
subroutine setup(a, b)
integer a, b
common /g/ ga, gb
gb = (a + (b*2))
return
end setup
integer function ifun(x)
    integer x
    ifun = (x*x) - 1
    return
end ifun

subroutine work(p, q, r)
 integer p, q, r, i, s
 common /g/ ga, gb
 s = 0
 do i = 1, p
   if ((q .gt. r) .and. (i .ne. 2)) then
     s = (s + ((q - r)*i)) + ga
   else
     s = s - gb
   endif
 enddo
 if (s .lt. 0) s = 0
 write(*,*) (s)
end work
`

// TestFormattingEditsReanalyzeNothing pins the contract
// internal/mf/sema/fingerprint.go documents: fingerprints hash the
// printed form, so an edit that changes only the layout of the source
// re-analyzes no procedure, and the incremental Report still equals a
// from-scratch analysis of the edited source.
func TestFormattingEditsReanalyzeNothing(t *testing.T) {
	base, err := parser.Parse(formatEditBase)
	if err != nil {
		t.Fatal(err)
	}
	edited, err := parser.Parse(formatEditSource)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := ast.Format(base), ast.Format(edited); a != b {
		t.Fatalf("the edits are not formatting-only:\n--- base ---\n%s\n--- edited ---\n%s", a, b)
	}
	for _, cfg := range incrementalConfigs() {
		cache := ipcp.NewMemoryCache()
		_, snap := ipcp.MustLoad(formatEditBase).AnalyzeIncremental(cfg, nil, cache)
		prog := ipcp.MustLoad(formatEditSource)
		rep, _ := prog.AnalyzeIncremental(cfg, snap, cache)
		if st := rep.Incremental; st.Reanalyzed != 0 || st.Reused != st.TotalProcedures {
			t.Fatalf("%+v: a formatting-only edit re-analyzed %d of %d procedures", cfg, st.Reanalyzed, st.TotalProcedures)
		}
		scratch := prog.Analyze(cfg)
		normalizeIncrementalReports(scratch, rep)
		if !reflect.DeepEqual(scratch, rep) {
			t.Fatalf("%+v: incremental report after a formatting-only edit diverges from scratch", cfg)
		}
	}
}
