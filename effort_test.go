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
// dependence-driven one), plus the warm-start worklist counters of one
// doduc leaf edit under each policy. The constants themselves are
// pinned elsewhere; this file moves only when the solver's schedule
// does, so a refactor of stage 3 shows its effect as a diff against
// testdata/solver_effort.txt.
func TestSolverEffortGolden(t *testing.T) {
	want := readEffortGolden(t)
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
// (program, flavor, policy) and one "warm" line per policy.
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
	// LEAF0 is a doduc leaf with a single caller: the edit's cone is
	// {LEAF0}, so the warm re-solve seeds only it and its caller.
	gen := suite.Generate("doduc", effortScale)
	edited, ok := editProgramIn(t, gen.Source, "LEAF0", 1)
	if !ok {
		t.Fatal("LEAF0 has no editable literals")
	}
	for _, pol := range policies {
		cfg := ipcp.Config{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true, DependenceSolver: pol.dep}
		cache := ipcp.NewMemoryCache()
		_, snap := ipcp.MustLoad(gen.Source).AnalyzeIncremental(cfg, nil, cache)
		rep, _ := ipcp.MustLoad(edited).AnalyzeIncremental(cfg, snap, cache)
		st := rep.Incremental
		if !st.WarmStarted {
			t.Fatalf("%s: leaf edit did not warm-start", pol.name)
		}
		lines = append(lines, fmt.Sprintf("warm doduc-LEAF0 %s seeded=%d visited=%d enqueued=%d",
			pol.name, st.WorklistSeeded, st.WorklistVisited, st.WorklistEnqueued))
	}
	return lines
}

// readEffortGolden returns the non-comment lines of
// testdata/solver_effort.txt.
func readEffortGolden(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "solver_effort.txt"))
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
