//go:build !race

package parser

import (
	"runtime"
	"testing"

	"ipcp/internal/suite"
)

// TestParseAllocBound bounds what Parse allocates, measured as the
// growth of runtime.MemStats.TotalAlloc over one call. The parser pulls
// tokens from the lexer one at a time, so its memory follows the tree
// it builds, not the token count: a million nested parentheses build
// no tree before the nesting bound stops them, and doduc at scale 24
// (94 KB) allocates about what its AST holds. The race detector
// changes what a run allocates, so the file is excluded under -race;
// scripts/check.sh runs it without.
func TestParseAllocBound(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		limit uint64
	}{
		{"a million nested parentheses", nestProgram(nestForms["parentheses"](1000000)), 4 << 20},
		{"doduc at scale 24", suite.Generate("doduc", 24).Source, 3 << 20},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, _ = Parse(tc.src)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d-byte source, %.2f MB allocated", tc.name, len(tc.src), float64(got)/(1<<20))
		if got > tc.limit {
			t.Errorf("%s: Parse allocated %.2f MB, bound %.2f MB", tc.name, float64(got)/(1<<20), float64(tc.limit)/(1<<20))
		}
	}
}
