//go:build !race

package report

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"ipcp"
)

// allocTolerance is how far a row's bytes or objects may drift from the
// golden before the test fails. At one worker a row's allocation repeats
// to within 0.3% run to run, so 3% leaves room for that and flags a
// real change.
const allocTolerance = 0.03

// TestTableAllocGolden pins what each suite program's Table 2 and
// Table 3 rows allocate, bytes and objects, against
// testdata/table_allocs.txt. The rows run as the tables call them but
// sequentially: every configuration with Workers 1, on one matrix
// worker, since parallel runs allocate goroutines and schedules that
// vary. An allocation regression in any stage then fails go test, and
// a change that moves the figures shows its cost as a golden diff. The
// race detector changes what a run allocates, so the file is excluded
// under -race; scripts/check.sh runs it without.
func TestTableAllocGolden(t *testing.T) {
	want := make(map[string][2]uint64)
	for _, line := range goldenLines(t, "table_allocs.txt") {
		f := strings.Fields(line)
		if len(f) != 4 {
			t.Fatalf("malformed golden line %q", line)
		}
		bytes, err1 := strconv.ParseUint(strings.TrimPrefix(f[2], "bytes="), 10, 64)
		objects, err2 := strconv.ParseUint(strings.TrimPrefix(f[3], "objects="), 10, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("malformed golden line %q", line)
		}
		want[f[0]+" "+f[1]] = [2]uint64{bytes, objects}
	}
	t2, t3 := sequential(table2Configs), sequential(table3Configs)
	progs := Suite()
	// Warm up: a process's first analyses also fill lazily built
	// package state.
	progs[0].prog.AnalyzeMatrix(t2, 1)
	progs[0].prog.AnalyzeMatrixWithBaseline(t3, 1)
	var got []string
	for _, l := range progs {
		rows := []struct {
			name string
			run  func()
		}{
			{"table2", func() { l.prog.AnalyzeMatrix(t2, 1) }},
			{"table3", func() { l.prog.AnalyzeMatrixWithBaseline(t3, 1) }},
		}
		for _, row := range rows {
			bytes, objects := allocs(row.run)
			key := l.meta.Name + " " + row.name
			got = append(got, fmt.Sprintf("%s bytes=%d objects=%d", key, bytes, objects))
			w, ok := want[key]
			if !ok {
				t.Errorf("%s: no golden line", key)
				continue
			}
			if drift(bytes, w[0]) > allocTolerance || drift(objects, w[1]) > allocTolerance {
				t.Errorf("%s: %d bytes and %d objects, golden %d and %d (tolerance %.0f%%)",
					key, bytes, objects, w[0], w[1], 100*allocTolerance)
			}
		}
	}
	if len(got) != len(want) {
		t.Errorf("measured %d rows, golden has %d", len(got), len(want))
	}
	if t.Failed() {
		t.Logf("measured rows:\n%s", strings.Join(got, "\n"))
	}
}

// sequential returns a copy of cfgs with every configuration on one
// worker.
func sequential(cfgs []ipcp.Config) []ipcp.Config {
	out := append([]ipcp.Config(nil), cfgs...)
	for i := range out {
		out[i].Workers = 1
	}
	return out
}

// allocs returns the heap bytes and objects run allocates.
func allocs(run func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// drift is the relative distance of got from want.
func drift(got, want uint64) float64 {
	return math.Abs(float64(got)-float64(want)) / float64(want)
}

// goldenLines returns the non-comment lines of testdata/<name>.
func goldenLines(t *testing.T, name string) []string {
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
