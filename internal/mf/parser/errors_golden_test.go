package parser

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipcp/internal/mf/ast"
)

// errorCases are malformed sources whose full error lists, and the
// partial trees Parse returns with them, are pinned in
// testdata/error_lists.txt. They cover the interplay of the two error
// sources: lexical errors always come first, the lexical and syntax
// errors share one token.MaxErrors budget, and a parse that stops
// early still reports every lexical error of the source.
var errorCases = []struct{ name, src string }{
	{"lexical errors past the cap", "PROGRAM P\n" + strings.Repeat("  X = 1 # 2\n", 14) + "END\n"},
	{"continuation errors past the cap", "PROGRAM P\n" + strings.Repeat("  X = 1 + & Y\n  2\n", 12) + "END\n"},
	{"syntax errors past the cap", "PROGRAM P\n  INTEGER X\n" + strings.Repeat("  X = = 1\n", 14) + "END\n"},
	{"ten lexical errors then a syntax error", "PROGRAM P\n  X = = 1\n" + strings.Repeat("  Y = 2 + & Z\n  3\n", 10) + "END\n"},
	{"lexical errors after the eleventh syntax error", "PROGRAM P\n" + strings.Repeat("  X = = 1\n", 12) + strings.Repeat("  Y = 'A' # 1\n", 3) + "END\n"},
	{"units between the two halting points", "" +
		"SUBROUTINE A\n" + strings.Repeat("  X = = 1\n", 5) + "END\n" +
		"SUBROUTINE C1\n" + strings.Repeat("  X = = 1\n", 3) + "END\n" +
		"SUBROUTINE B\n  X = 1\nEND\n" +
		"SUBROUTINE C2\n" + strings.Repeat("  X = = 1\n", 3) + "END\n" +
		"SUBROUTINE D\n" + strings.Repeat("  X = 1 + & Y\n  2\n", 3) + "END\n" +
		"PROGRAM P\n  CALL A\nEND\n"},
	{"nesting bound then lexical errors", strings.TrimSuffix(nestProgram(nestForms["parentheses"](MaxNesting+1)), "END\n") +
		strings.Repeat("  X = 1 # 2\n", 3) + "END\n"},
	{"nesting bound after ten lexical errors", strings.TrimSuffix(nestProgram(nestForms["sum"](MaxNesting+1)), "END\n") +
		strings.Repeat("  X = 1 # 2\n", 10) + "END\n"},
	{"unterminated string at EOF", "PROGRAM P\n  WRITE(*,*) 'ABC"},
	{"unterminated string before a newline", "PROGRAM P\n  WRITE(*,*) 'ABC\n  X = 1\nEND\n"},
	{"malformed literals and operators", "PROGRAM P\n  X = 99999999999999999999\n  Y = A .FOO. B\n  Z = 1.E\nEND\n"},
	{"broken unit headers", "SUBROUTINE\n  X = 1\nEND\nREAL X\nEND\nPROGRAM P\n  X = 1\nEND\n"},
	{"unterminated labeled DO", "PROGRAM P\n  DO 10 I = 1, 2\n  X = I\nEND\nSUBROUTINE S\nEND\n"},
	{"empty input", ""},
	{"comment-only input", "! a comment\n* a comment line\n\n   ! an indented comment\n"},
}

// renderErrorCases parses every case and renders the units it kept, a
// digest of the partial tree's printed form, and the error list.
func renderErrorCases(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, tc := range errorCases {
		lines = append(lines, "case "+tc.name)
		file, err := Parse(tc.src)
		names := make([]string, len(file.Units))
		for i, u := range file.Units {
			names[i] = u.Name
		}
		lines = append(lines, fmt.Sprintf("units [%s] ast %x", strings.Join(names, " "), sha256.Sum256([]byte(ast.Format(file)))))
		var list ErrorList
		if err != nil && !errors.As(err, &list) {
			t.Fatalf("%s: error %T is not an ErrorList", tc.name, err)
		}
		for _, e := range list {
			lines = append(lines, fmt.Sprintf("%s %s", e.Pos, e.Msg))
		}
	}
	return lines
}

// TestErrorListGolden pins the full error list (message and line:col)
// and the partial tree of every error case.
func TestErrorListGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "error_lists.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	got := renderErrorCases(t)
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
