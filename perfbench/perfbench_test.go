package main

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"ipcp"
	"ipcp/internal/suite"
)

// TestSeedDeterminism pins the seed contract: the same seed yields
// byte-identical corpora, edit chains and batch plans, and another seed
// yields different ones.
func TestSeedDeterminism(t *testing.T) {
	gens := map[string]func(seed int64) ([]byte, error){
		"study-tables": func(seed int64) ([]byte, error) {
			in, err := genStudy(seed)
			return in.encode(), err
		},
		"edit-loop": func(seed int64) ([]byte, error) {
			c, err := genEdit(seed, editScale, editChainN)
			return c.encode(), err
		},
		"serve-fleet": func(seed int64) ([]byte, error) {
			in, err := genFleet(seed, fleetScale, fleetChainN)
			return in.encode(), err
		},
	}
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			a, err := gen(1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := gen(1)
			if err != nil {
				t.Fatal(err)
			}
			c, err := gen(2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Error("seed 1 generated different inputs on two calls")
			}
			if bytes.Equal(a, c) {
				t.Error("seeds 1 and 2 generated identical inputs")
			}
		})
	}
}

// corrupting corrupts the output of the first op it checks.
type corrupting struct {
	workload
	mutate func(out any)
	once   sync.Once
}

func (c *corrupting) check(out any) error {
	c.once.Do(func() { c.mutate(out) })
	return c.workload.check(out)
}

// TestVerificationGate tests the correctness gate itself: one corrupted
// output — a table cell, a constant in a report, a batch item's status
// — must fail its op and pull op_ok_ratio below 1.
func TestVerificationGate(t *testing.T) {
	cases := []struct {
		name   string
		w      workload
		mutate func(out any)
	}{
		{"study-tables", &studyTables{}, func(out any) {
			out.([][]string)[0][1] += "1"
		}},
		{"edit-loop", &editLoop{scale: 2, edits: 4, work: t.TempDir()}, func(out any) {
			bumpConstant(t, out.(editOut).rep)
		}},
		{"serve-fleet", &serveFleet{scale: 1, chainN: 4}, func(out any) {
			out.(fleetOut).results[0].Status = 500
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := measure(&corrupting{workload: tc.w, mutate: tc.mutate}, 1, time.Second, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			m, _ := r.endToEnd()
			if failed := len(r.records) - r.ok(); failed != 1 {
				t.Errorf("%d of %d ops failed, want exactly the corrupted one", failed, len(r.records))
			}
			if m["op_ok_ratio"] >= 1 || r.correct() {
				t.Errorf("op_ok_ratio = %v, correct = %v after a corrupted output", m["op_ok_ratio"], r.correct())
			}
		})
	}
}

func bumpConstant(t *testing.T, rep *ipcp.Report) {
	for _, p := range rep.Procedures {
		if len(p.Constants) > 0 {
			p.Constants[0].Value++
			return
		}
	}
	t.Fatal("report has no constant to corrupt")
}

// TestChecksAllocateNothing pins what lets the window's heap figure
// leave verification out: comparing a report with its reference, and
// the study's cell comparison, allocate nothing.
func TestChecksAllocateNothing(t *testing.T) {
	src := suite.Generate("doduc", 2).Source
	ref, err := scratchReference(src, cliConfig)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ipcp.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	got := prog.Analyze(cliConfig)
	if n := testing.AllocsPerRun(20, func() {
		if err := sameReport(got, ref); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("sameReport allocates %v times per call", n)
	}

	w := &studyTables{}
	if err := w.prepare(1); err != nil {
		t.Fatal(err)
	}
	rows := make([][]string, len(w.want))
	for i, row := range w.want {
		rows[i] = append([]string(nil), row...)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := w.check(rows); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("the study check allocates %v times per call", n)
	}
}

// TestEqual checks the allocation-free comparison against
// reflect.DeepEqual: every corruption DeepEqual sees, equal sees.
func TestEqual(t *testing.T) {
	src := suite.Generate("ocean", 1).Source
	ref, err := scratchReference(src, cliConfig)
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(r *ipcp.Report){
		"none":            func(r *ipcp.Report) {},
		"constant value":  func(r *ipcp.Report) { bumpConstant(t, r) },
		"constant name":   func(r *ipcp.Report) { firstConstant(t, r).Name += "x" },
		"constant global": func(r *ipcp.Report) { c := firstConstant(t, r); c.Global = !c.Global },
		"procedure gone":  func(r *ipcp.Report) { r.Procedures = r.Procedures[1:] },
		"procedure nil":   func(r *ipcp.Report) { r.Procedures[0] = nil },
		"constants nil":   func(r *ipcp.Report) { r.Procedures[0].Constants = nil },
		"total":           func(r *ipcp.Report) { r.TotalSubstituted++ },
		"config":          func(r *ipcp.Report) { r.Config.MOD = !r.Config.MOD },
		"shape":           func(r *ipcp.Report) { r.JumpFunctionShape.SupportSum++ },
		"pass":            func(r *ipcp.Report) { r.Passes[0].Pass += "x" },
		"passes nil":      func(r *ipcp.Report) { r.Passes = nil },
	}
	for name, mutate := range mutations {
		got, err := roundTrip(ref)
		if err != nil {
			t.Fatal(err)
		}
		want, err := roundTrip(ref)
		if err != nil {
			t.Fatal(err)
		}
		mutate(got)
		deep := reflect.DeepEqual(got, want)
		if eq := equal(reflect.ValueOf(got), reflect.ValueOf(want)); eq != deep {
			t.Errorf("%s: equal = %v, reflect.DeepEqual = %v", name, eq, deep)
		}
		if deep != (name == "none") {
			t.Errorf("%s: reflect.DeepEqual = %v", name, deep)
		}
	}
}

func firstConstant(t *testing.T, rep *ipcp.Report) *ipcp.Constant {
	for _, p := range rep.Procedures {
		if len(p.Constants) > 0 {
			return &p.Constants[0]
		}
	}
	t.Fatal("report has no constant")
	return nil
}

// TestCovered pins the interval union behind every self time.
func TestCovered(t *testing.T) {
	sp := func(a, b int64) span { return span{Start: a, End: b} }
	cases := []struct {
		spans  []span
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[]span{sp(1, 3), sp(2, 5)}, 0, 10, 4},
		{[]span{sp(1, 3), sp(4, 6)}, 0, 10, 4},
		{[]span{sp(-5, 3), sp(8, 20)}, 0, 10, 5},
		{[]span{sp(2, 9), sp(3, 4)}, 0, 10, 7},
	}
	for i, c := range cases {
		if got := covered(c.spans, c.lo, c.hi); got != c.want {
			t.Errorf("case %d: covered = %d, want %d", i, got, c.want)
		}
	}
}

// TestSlices pins the per-slice rates and CPU per op behind ops_per_s
// and cpu_ms_per_op: ops straddling a slice edge count by their share
// in the slice, failed ops take time but add no rate, callers' rates
// add up, and a check's CPU leaves the slice it ended in. It also pins
// which slices the time metrics keep: those with at most the median
// slice's steal, and only the ops started in them.
func TestSlices(t *testing.T) {
	s := time.Second
	r := &result{
		records: []opRecord{
			{start: 0, lat: s, ok: true, checkEnd: s, checkCPU: 300 * time.Millisecond},
			{start: s, lat: s, ok: true},
			{start: 2 * s, lat: s},
			{start: 0, lat: 3 * s, ok: true, caller: 1},
		},
		samples: []sample{{0, 0, 0}, {1500 * time.Millisecond, 3 * s, 0}, {3 * s, 6 * s, 0}},
	}
	all := r.slices()
	rates, cpu := sliceMetrics(all)
	wantRates := []float64{1 + 1.0/3, 1.0/3 + 1.0/3}
	wantCPU := []float64{2700.0 / 2, 3000.0 / 2}
	if len(rates) != 2 || len(cpu) != 2 {
		t.Fatalf("got %d rates and %d CPU figures, want 2 each", len(rates), len(cpu))
	}
	for i := range rates {
		if math.Abs(rates[i]-wantRates[i]) > 1e-9 || math.Abs(cpu[i]-wantCPU[i]) > 1e-9 {
			t.Errorf("slice %d: rate %v, CPU %v ms per op; want %v, %v", i, rates[i], cpu[i], wantRates[i], wantCPU[i])
		}
	}
	if kept := keep(all); len(kept) != 2 {
		t.Errorf("without steal, %d of 2 slices kept", len(kept))
	}
	if _, lats := r.endToEnd(); len(lats) != 4 {
		t.Errorf("without steal, p50 and tail over %d of 4 ops", len(lats))
	}

	// Steal in the second slice drops it, and the op started in it.
	r.samples[2].steal = 200 * time.Millisecond
	r.samples = append(r.samples, sample{4 * s, 7 * s, 200 * time.Millisecond})
	r.records = append(r.records, opRecord{start: 3 * s, lat: s, ok: true})
	kept := keep(r.slices())
	if len(kept) != 2 || kept[0].a != 0 || kept[1].a != 3*s {
		t.Errorf("kept slices %+v, want the first and the third", kept)
	}
	m, lats := r.endToEnd()
	if len(lats) != 4 {
		t.Errorf("p50 and tail over %d ops, want the 4 started in kept slices", len(lats))
	}
	if m["op_ok_ratio"] != 4.0/5 {
		t.Errorf("op_ok_ratio = %v over every op, want 0.8", m["op_ok_ratio"])
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
