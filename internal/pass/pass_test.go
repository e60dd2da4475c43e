package pass

import (
	"strings"
	"testing"
)

func TestFormatStats(t *testing.T) {
	stats := []Stat{
		{Pass: "propagate", Round: 1, Changed: true, InstrsBefore: 10, Instrs: 14, BlocksBefore: 3, Blocks: 3, Nanos: 1500},
		{Pass: "dce", Round: 1, Changed: true, InstrsBefore: 14, Instrs: 9, BlocksBefore: 3, Blocks: 2, Nanos: 900},
		{Pass: "propagate", Round: 2, InstrsBefore: 9, Instrs: 9, BlocksBefore: 2, Blocks: 2, Nanos: 1100},
		{Pass: "complete", Fixpoint: true, Rounds: 1, Changed: true, InstrsBefore: 10, Instrs: 9, BlocksBefore: 3, Blocks: 2, Nanos: 4000},
	}
	out := FormatStats(stats)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // header, rule, three aggregated rows
		t.Fatalf("table has %d lines, want 5:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "pass") || !strings.Contains(lines[0], "Δinstrs") {
		t.Fatalf("missing header: %q", lines[0])
	}
	var propRow string
	for _, l := range lines {
		if strings.HasPrefix(l, "propagate") {
			propRow = l
		}
	}
	if propRow == "" {
		t.Fatalf("no propagate row:\n%s", out)
	}
	fields := strings.Fields(propRow)
	// pass runs rounds changed Δinstrs Δblocks time
	if fields[1] != "2" || fields[3] != "1" || fields[4] != "+4" {
		t.Fatalf("propagate row %q: want 2 runs, 1 changed, +4 instrs", propRow)
	}
}
