package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipcp/internal/suite"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:   "Title line",
		Headers: []string{"Program", "Count"},
		Rows:    [][]string{{"alpha", "12"}, {"betalonger", "3"}},
		Note:    "footnote",
	}
	out := tbl.Render()
	for _, want := range []string{"Title line", "Program", "alpha", "betalonger", "footnote"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Column alignment: both numeric cells end at the same column.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var dataLines []string
	for _, l := range lines {
		if strings.HasPrefix(l, "alpha") || strings.HasPrefix(l, "betalonger") {
			dataLines = append(dataLines, l)
		}
	}
	if len(dataLines) != 2 || len(dataLines[0]) != len(dataLines[1]) {
		t.Errorf("rows not aligned:\n%s", out)
	}
}

func TestFigure1Content(t *testing.T) {
	f := Figure1()
	for _, want := range []string{"any ^  T  = any", "any ^ _|_ = _|_", "bounded depth"} {
		if !strings.Contains(f, want) {
			t.Errorf("figure missing %q", want)
		}
	}
}

// TestTablesOverSuite regenerates the tables over the suite and
// compares every Table 2 and Table 3 cell with testdata/suite_tables.txt,
// the measured tables of EXPERIMENTS.md.
func TestTablesOverSuite(t *testing.T) {
	want := readSuiteTables(t)
	progs := Suite()
	if len(progs) != 12 {
		t.Fatalf("suite size: %d", len(progs))
	}
	t1 := Table1(progs).Render()
	t2, t3 := Table2(progs), Table3(progs)
	for i, name := range suite.Names() {
		if !strings.Contains(t1, name) {
			t.Errorf("table 1 missing program %s", name)
		}
		if t2.Rows[i][0] != name || t3.Rows[i][0] != name {
			t.Fatalf("row %d: tables name %s and %s, want %s", i, t2.Rows[i][0], t3.Rows[i][0], name)
		}
		got := append(append([]string{}, t2.Rows[i][1:]...), t3.Rows[i][1:]...)
		headers := append(append([]string{}, t2.Headers[1:]...), t3.Headers[1:]...)
		if len(got) != len(want[name]) {
			t.Fatalf("%s: %d cells, testdata has %d", name, len(got), len(want[name]))
		}
		for j := range got {
			if got[j] != want[name][j] {
				t.Errorf("%s %s = %s, want %s", name, headers[j], got[j], want[name][j])
			}
		}
	}
	// Accessors round-trip.
	if progs[0].Prog() == nil || progs[0].Meta() == nil {
		t.Error("Loaded accessors broken")
	}
	if testing.Short() {
		return // All regenerates the suite and every table a second time
	}
	all := All()
	if !strings.Contains(all, "Table 1") || !strings.Contains(all, "Table 3") {
		t.Error("All() incomplete")
	}
}

// readSuiteTables parses testdata/suite_tables.txt: per program, the six
// Table 2 cells followed by the four Table 3 cells.
func readSuiteTables(t *testing.T) map[string][]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "suite_tables.txt"))
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string][]string)
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(strings.Replace(line, "|", " ", 1))
		rows[f[0]] = f[1:]
	}
	if len(rows) != len(suite.Names()) {
		t.Fatalf("testdata has %d programs, want %d", len(rows), len(suite.Names()))
	}
	return rows
}
