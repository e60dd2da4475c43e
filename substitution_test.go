package ipcp_test

import (
	"fmt"
	"strings"
	"testing"

	"ipcp"
	"ipcp/internal/suite"
)

// TestSubstitutionGolden pins the paper's metric itself: the
// program-wide substitution count and its control-flow share, for the
// 12 suite programs at scale 4 and 20 random programs, under the full
// 16-configuration matrix plus two complete-propagation columns. The
// differential suites compare scratch, incremental, parallel and
// matrix runs against each other, so a fault every path shares (the
// counter itself) passes them all; this file catches it as a diff
// against testdata/substitution_counts.txt.
func TestSubstitutionGolden(t *testing.T) {
	want := readGolden(t, "substitution_counts.txt")
	got := substitutionLines(t)
	if len(got) != len(want) {
		t.Errorf("rendered %d substitution lines, golden has %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("substitution line %d:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
	if t.Failed() {
		t.Logf("rendered substitution table:\n%s", strings.Join(got, "\n"))
	}
}

// substitutionLines renders one line per (program, configuration).
func substitutionLines(t *testing.T) []string {
	t.Helper()
	cfgs := append(ipcp.FullMatrix(),
		ipcp.Config{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true, Complete: true},
		ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, Complete: true},
	)
	type named struct{ name, src string }
	var progs []named
	for _, name := range suite.Names() {
		progs = append(progs, named{name, suite.Generate(name, effortScale).Source})
	}
	for seed := int64(1); seed <= 20; seed++ {
		progs = append(progs, named{fmt.Sprintf("random%d", seed), suite.Random(seed, 5).Source})
	}
	var lines []string
	for _, p := range progs {
		reps := ipcp.MustLoad(p.src).AnalyzeMatrix(cfgs, 1)
		for i, rep := range reps {
			c := cfgs[i]
			lines = append(lines, fmt.Sprintf("%s %s ret=%t mod=%t complete=%t subst=%d control=%d",
				p.name, c.Jump, c.ReturnJumpFunctions, c.MOD, c.Complete,
				rep.TotalSubstituted, rep.TotalControlFlowSubstituted))
		}
	}
	return lines
}
