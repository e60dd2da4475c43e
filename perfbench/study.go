package main

import (
	"fmt"
	"strconv"
	"sync"

	"ipcp"
	"ipcp/internal/report"
	"ipcp/internal/suite"
)

// study-tables regenerates the paper's Tables 2 and 3 over the suite
// plus a seeded draw of random programs, and runs the dependence-driven
// solver configuration of EXPERIMENTS.md's solver ablation beside them,
// so both stage-3 wake-up policies are on the clock. core does nearly
// all the work: the corpus is loaded in set-up, and no store, journal
// or HTTP hop is involved.

// The tables' columns, as internal/report builds them; the traced op
// runs them itself so it can time each AnalyzeMatrix call.
var (
	table2Configs = []ipcp.Config{
		{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true},
		{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true},
		{Jump: ipcp.Intraprocedural, ReturnJumpFunctions: true, MOD: true},
		{Jump: ipcp.Literal, ReturnJumpFunctions: true, MOD: true},
		{Jump: ipcp.Polynomial, MOD: true},
		{Jump: ipcp.PassThrough, MOD: true},
	}
	table3Configs = []ipcp.Config{
		{Jump: ipcp.Polynomial, ReturnJumpFunctions: true},
		{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true},
		{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true, Complete: true},
	}
	dependenceConfig = ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true, DependenceSolver: true}
)

// A row is the program name, the six Table 2 cells, the four Table 3
// cells (the last the intraprocedural baseline) and the
// dependence-solver cell.
const (
	expectedColumns = 1 + 6 + 4
	studyColumns    = expectedColumns + 1
)

type studyTables struct {
	in    studyInputs
	want  [][]string
	progs []*report.Loaded

	props []string

	// Traced-op tallies.
	mu  sync.Mutex
	acc reportTally
}

func (w *studyTables) callers() int       { return 1 }
func (w *studyTables) cacheFacts() string { return "" }
func (w *studyTables) teardown(bool)      { w.progs = nil }

func (w *studyTables) prepare(seed int64) error {
	in, err := genStudy(seed)
	if err != nil {
		return err
	}
	w.in = in
	expected, err := parseExpected(expectedTables)
	if err != nil {
		return err
	}
	w.want = make([][]string, len(w.in.programs))
	var lines, procs int
	var poly reportTally
	var mu sync.Mutex
	err = parallel(len(w.in.programs), func(i int) error {
		p := w.in.programs[i]
		prog, err := ipcp.Load(p.Source)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		polyRep := prog.Analyze(table2Configs[0])
		st := prog.Stats()
		mu.Lock()
		lines += st.Lines
		procs += st.Procedures
		poly.add(polyRep)
		mu.Unlock()
		if i >= len(suite.Names()) {
			w.want[i] = w.in.randomRows[i-len(suite.Names())]
			return nil
		}
		cells, ok := expected[p.Name]
		if !ok {
			return fmt.Errorf("expected_tables.txt has no row for %s", p.Name)
		}
		w.want[i] = append(append([]string{p.Name}, cells...), cells[1])
		return nil
	})
	if err != nil {
		return err
	}
	w.props = []string{
		fmt.Sprintf("corpus programs=%d (suite=%d random=%d; %d random candidates skipped because the oracle rejected their scratch analysis) lines=%d procedures=%d",
			len(w.in.programs), len(suite.Names()), len(w.in.programs)-len(suite.Names()), w.in.skipped, lines, procs),
		fmt.Sprintf("polynomial-flavor jump functions=%d genuinely_polynomial=%d share=%.4f",
			poly.jfs(), poly.shape.Polynomial, poly.polyShare()),
		"edits share=0 (no edits: every op re-runs the tables over the loaded corpus)",
		"batches none (in-process calls only)",
	}
	return nil
}

// studyReferenceRow computes a random program's cells from one scratch
// Analyze per configuration, each confirmed by the interpreter oracle.
func studyReferenceRow(prog *ipcp.Program, name string) ([]string, error) {
	row := []string{name}
	cfgs := append(append([]ipcp.Config{}, table2Configs...), table3Configs...)
	for i, cfg := range cfgs {
		rep := prog.Analyze(cfg)
		for seed := int64(0); seed < 3; seed++ {
			if v := prog.VerifyConstants(rep, ipcp.ExecOptions{InputSeed: seed, Fuel: oracleFuel}); len(v) > 0 {
				return nil, fmt.Errorf("%s: oracle rejects config %d: %s", name, i, v[0])
			}
		}
		row = append(row, strconv.Itoa(rep.TotalSubstituted))
	}
	row = append(row, strconv.Itoa(prog.AnalyzeIntraprocedural().TotalSubstituted))
	return append(row, row[2]), nil
}

func (w *studyTables) properties() []string { return w.props }

// setup is one cmd/tables run: load the corpus, then regenerate the
// tables once, cold. The corpus load alone takes tens of milliseconds,
// too short to repeat steadily; the first regeneration makes set-up a
// long, CPU-bound measurement of what one invocation costs.
func (w *studyTables) setup() (func() error, error) {
	progs := make([]*report.Loaded, len(w.in.programs))
	for i, p := range w.in.programs {
		prog, err := ipcp.Load(p.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		progs[i] = report.NewLoaded(p, prog)
	}
	w.progs = progs
	rows, err := w.op(opCtx{})
	return func() error { return w.check(rows) }, err
}

func (w *studyTables) op(c opCtx) (any, error) {
	var rows [][]string
	if c.t == nil {
		t2, t3 := report.Table2(w.progs), report.Table3(w.progs)
		dep := eachProgram(w.progs, func(l *report.Loaded) string {
			return strconv.Itoa(l.Prog().AnalyzeMatrix([]ipcp.Config{dependenceConfig}, 0)[0].TotalSubstituted)
		})
		rows = make([][]string, len(w.progs))
		for i := range rows {
			rows[i] = append(append(append([]string{}, t2.Rows[i]...), t3.Rows[i][1:]...), dep[i])
		}
	} else {
		rows = w.tracedOp(c)
	}
	return rows, nil
}

// tracedOp computes the same rows with a span around every
// AnalyzeMatrix and AnalyzeIntraprocedural call, in the same three
// concurrent phases as the untraced op.
func (w *studyTables) tracedOp(c opCtx) [][]string {
	var (
		mu  sync.Mutex
		all []*ipcp.Report
	)
	matrix := func(l *report.Loaded, cfgs []ipcp.Config) []string {
		s := c.t.start("core.matrix", c.root, c.id)
		reps := l.Prog().AnalyzeMatrix(cfgs, 0)
		c.t.finish(s)
		mu.Lock()
		all = append(all, reps...)
		mu.Unlock()
		cells := make([]string, len(reps))
		for i, r := range reps {
			cells[i] = strconv.Itoa(r.TotalSubstituted)
		}
		return cells
	}
	t2 := eachProgram(w.progs, func(l *report.Loaded) []string { return matrix(l, table2Configs) })
	t3 := eachProgram(w.progs, func(l *report.Loaded) []string {
		cells := matrix(l, table3Configs)
		s := c.t.start("core.intra", c.root, c.id)
		intra := l.Prog().AnalyzeIntraprocedural()
		c.t.finish(s)
		return append(cells, strconv.Itoa(intra.TotalSubstituted))
	})
	dep := eachProgram(w.progs, func(l *report.Loaded) []string { return matrix(l, []ipcp.Config{dependenceConfig}) })
	rows := make([][]string, len(w.progs))
	for i, l := range w.progs {
		rows[i] = append(append(append([]string{l.Meta().Name}, t2[i]...), t3[i]...), dep[i]...)
	}
	w.mu.Lock()
	for _, r := range all {
		w.acc.add(r)
	}
	w.mu.Unlock()
	return rows
}

// eachProgram maps fn over the programs concurrently, one goroutine per
// program, as internal/report fills table rows.
func eachProgram[T any](progs []*report.Loaded, fn func(*report.Loaded) T) []T {
	out := make([]T, len(progs))
	var wg sync.WaitGroup
	for i, l := range progs {
		wg.Add(1)
		go func(i int, l *report.Loaded) {
			defer wg.Done()
			out[i] = fn(l)
		}(i, l)
	}
	wg.Wait()
	return out
}

// check compares an op's rows, cell by cell, with the expected file's
// suite rows and the oracle-confirmed random-program rows.
func (w *studyTables) check(out any) error {
	rows := out.([][]string)
	if len(rows) != len(w.want) {
		return fmt.Errorf("%d rows, want %d", len(rows), len(w.want))
	}
	for i, row := range rows {
		if len(row) != studyColumns {
			return fmt.Errorf("row %d has %d cells, want %d", i, len(row), studyColumns)
		}
		for j := range row {
			if row[j] != w.want[i][j] {
				return fmt.Errorf("%s column %d = %s, want %s", w.want[i][0], j, row[j], w.want[i][j])
			}
		}
	}
	return nil
}

func (w *studyTables) layers(t *tracer, traced int) map[string]float64 {
	m := map[string]float64{}
	var matrixNS, intraNS int64
	for _, spans := range t.byOp() {
		o := index(spans)
		r, ok := o.root()
		if !ok {
			continue
		}
		matrixNS += covered(o.named("core.matrix"), r.Start, r.End)
		intraNS += covered(o.named("core.intra"), r.Start, r.End)
	}
	m["core.matrix_ms_per_op"] = perOpMS(matrixNS, traced)
	m["core.intra_ms_per_op"] = perOpMS(intraNS, traced)
	w.acc.metrics(m, traced)
	return m
}
