package ipcp_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipcp"
	"ipcp/internal/suite"
)

// effortScale is the suite scale the stage-3 effort golden is pinned at.
const effortScale = 4

// TestSolverEffortGolden pins the stage-3 solver effort: SolverPasses
// and JFEvaluations of every suite program under every flavor and both
// wake-up policies (the paper's simple worklist and the Callahan et al.
// dependence-driven one). The constants themselves are pinned
// elsewhere; this file moves only when the solver's schedule does, so
// a refactor of stage 3 shows its effect as a diff against
// testdata/solver_effort.txt.
func TestSolverEffortGolden(t *testing.T) {
	want := readGolden(t, "solver_effort.txt")
	got := solverEffortLines(t)
	if len(got) != len(want) {
		t.Errorf("rendered %d effort lines, golden has %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("effort line %d:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
	if t.Failed() {
		t.Logf("rendered effort table:\n%s", strings.Join(got, "\n"))
	}
}

// solverEffortLines renders the effort table: one "cold" line per
// (program, flavor, policy).
func solverEffortLines(t *testing.T) []string {
	t.Helper()
	policies := []struct {
		name string
		dep  bool
	}{{"worklist", false}, {"dependence", true}}
	var lines []string
	for _, name := range suite.Names() {
		prog := ipcp.MustLoad(suite.Generate(name, effortScale).Source)
		for _, jf := range ipcp.JumpFunctions {
			for _, pol := range policies {
				rep := prog.Analyze(ipcp.Config{
					Jump: jf, ReturnJumpFunctions: true, MOD: true, DependenceSolver: pol.dep,
				})
				lines = append(lines, fmt.Sprintf("cold %s %s %s passes=%d evals=%d",
					name, jf, pol.name, rep.SolverPasses, rep.JFEvaluations))
			}
		}
	}
	return lines
}

// readGolden returns the non-comment lines of the golden file
// testdata/<name>.
func readGolden(t *testing.T, name string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	return lines
}
