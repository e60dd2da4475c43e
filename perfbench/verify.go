package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"

	"ipcp"
	"ipcp/internal/core"
)

// References are computed before the set-up clock starts, never by the
// path under test: a scratch Analyze of the same source whose every
// constant the interpreter oracle (Program.VerifyConstants) confirmed,
// or the study's published cells.

// cliConfig is the configuration cmd/ipcp runs by default.
var cliConfig = ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true}

// normalize clears the fields that legitimately differ between a
// scratch Analyze and an incremental or served run of the same source
// — the normalization the repository's scratch-vs-incremental suite
// applies: run bookkeeping (Incremental), the echoed worker and
// warm-start knobs, wall-clock Nanos, and the solver-effort counters a
// warm-started stage 3 legitimately shrinks.
func normalize(r *ipcp.Report) {
	r.Incremental = nil
	r.Config.Workers = 0
	r.Config.NoWarmStart = false
	r.SolverPasses = 0
	r.JFEvaluations = 0
	for i := range r.Passes {
		r.Passes[i].Nanos = 0
	}
}

// sameReport compares a run's report with its reference; it normalizes
// got in place.
func sameReport(got, want *ipcp.Report) error {
	if got == nil {
		return fmt.Errorf("no report")
	}
	normalize(got)
	if equal(reflect.ValueOf(got), reflect.ValueOf(want)) {
		return nil
	}
	if got.TotalConstants != want.TotalConstants || got.TotalSubstituted != want.TotalSubstituted {
		return fmt.Errorf("report differs: %d constants / %d substituted, reference %d / %d",
			got.TotalConstants, got.TotalSubstituted, want.TotalConstants, want.TotalSubstituted)
	}
	return fmt.Errorf("report differs from its reference")
}

// equal is reflect.DeepEqual for the acyclic values a Report is made
// of, without DeepEqual's map of visited pointers: it allocates
// nothing, so verifying an op adds nothing to alloc_mb_per_op.
func equal(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return equal(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !equal(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() {
			return false
		}
		fallthrough
	case reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !equal(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		return a.CanInterface() && reflect.DeepEqual(a.Interface(), b.Interface())
	default:
		return a.Equal(b)
	}
}

// oracleFuel bounds each interpreter run of the oracle.
const oracleFuel = 50_000_000

// scratchReference analyzes src from scratch under cfg and confirms
// every reported constant by executing the program on three input
// seeds, as cmd/ipcp -verify does.
func scratchReference(src string, cfg ipcp.Config) (*ipcp.Report, error) {
	prog, err := ipcp.Load(src)
	if err != nil {
		return nil, err
	}
	rep := prog.Analyze(cfg)
	for seed := int64(0); seed < 3; seed++ {
		if v := prog.VerifyConstants(rep, ipcp.ExecOptions{InputSeed: seed, Fuel: oracleFuel}); len(v) > 0 {
			return nil, fmt.Errorf("oracle rejects the scratch analysis: %s", v[0])
		}
	}
	normalize(rep)
	return rep, nil
}

// oracleConfirms reports whether the oracle confirms the scratch
// analysis of every source under cliConfig.
func oracleConfirms(sources []string) bool {
	for _, src := range sources {
		if _, err := scratchReference(src, cliConfig); err != nil {
			return false
		}
	}
	return true
}

// parallel runs fn(0..n-1) on two goroutines and returns the first
// error.
func parallel(n int, fn func(i int) error) error {
	var (
		mu    sync.Mutex
		first error
		next  int
		wg    sync.WaitGroup
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// reportOf builds the public Report from a core result the way
// ipcp.Program.Analyze does. The traced edit-loop op calls the internal
// engine directly, so it needs this to be checked against the same
// references as the untraced op.
func reportOf(cfg ipcp.Config, res *core.Result) *ipcp.Report {
	rep := &ipcp.Report{
		Config:                      cfg,
		TotalSubstituted:            res.TotalSubstituted,
		TotalConstants:              res.TotalConstants,
		TotalControlFlowSubstituted: res.TotalControlFlow,
		SolverPasses:                res.SolverPasses,
		JFEvaluations:               res.JFEvaluations,
		DCERounds:                   res.DCERounds,
		JumpFunctionShape: ipcp.JumpFunctionShape{
			Bottom:      res.JFShape.Bottom,
			Constant:    res.JFShape.Constant,
			PassThrough: res.JFShape.PassThrough,
			Polynomial:  res.JFShape.Polynomial,
			SupportSum:  res.JFShape.SupportSum,
		},
		Passes: res.Stats.Passes,
	}
	for name, pr := range res.Procs {
		p := &ipcp.ProcedureReport{Name: name, Substituted: pr.Substituted, ControlFlowSubstituted: pr.ControlFlowSubstituted}
		for _, c := range pr.Constants {
			p.Constants = append(p.Constants, ipcp.Constant{Procedure: name, Name: c.Name, Global: c.Global, Value: c.Value})
		}
		rep.Procedures = append(rep.Procedures, p)
	}
	sort.Slice(rep.Procedures, func(i, j int) bool { return rep.Procedures[i].Name < rep.Procedures[j].Name })
	return rep
}

// roundTrip passes a report through JSON, as a served report does.
func roundTrip(r *ipcp.Report) (*ipcp.Report, error) {
	data, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	var out ipcp.Report
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ---------------------------------------------------------------------------
// The study's expected cells

//go:embed expected_tables.txt
var expectedTables string

// parseExpected reads expected_tables.txt: per suite program, the six
// Table 2 cells and the four Table 3 cells.
func parseExpected(text string) (map[string][]string, error) {
	out := make(map[string][]string)
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(strings.ReplaceAll(line, "|", " "))
		if len(f) != expectedColumns {
			return nil, fmt.Errorf("expected_tables.txt:%d: want a name and %d cells, got %d fields", n+1, expectedColumns-1, len(f))
		}
		out[f[0]] = f[1:]
	}
	return out, nil
}
