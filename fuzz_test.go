package ipcp_test

import (
	"reflect"
	"testing"

	"ipcp"
	"ipcp/internal/suite"
	"ipcp/internal/summary"
)

// FuzzAnalyze drives the entire pipeline — front end, SSA, value
// numbering, jump functions, both solvers, complete propagation, the
// intraprocedural baseline — over arbitrary inputs. The invariant under
// fuzzing: no panics, and the flavor containment of §3.1 holds for
// every program that loads.
//
// Run with `go test -fuzz FuzzAnalyze -fuzztime 1m .` for a session.
func FuzzAnalyze(f *testing.F) {
	for _, name := range suite.Names() {
		f.Add(suite.Generate(name, 1).Source)
	}
	for seed := int64(1); seed <= 5; seed++ {
		f.Add(suite.Random(seed, 4).Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<15 {
			return
		}
		prog, err := ipcp.Load(src)
		if err != nil {
			return
		}
		prev := -1
		for _, flavor := range ipcp.JumpFunctions {
			rep := prog.Analyze(ipcp.Config{Jump: flavor, ReturnJumpFunctions: true, MOD: true})
			if rep.TotalSubstituted < prev {
				t.Fatalf("flavor containment violated at %v: %d < %d\n%s",
					flavor, rep.TotalSubstituted, prev, src)
			}
			prev = rep.TotalSubstituted
		}
		prog.Analyze(ipcp.Config{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true, Complete: true})
		a := prog.Analyze(ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true})
		b := prog.Analyze(ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true, DependenceSolver: true})
		if a.TotalSubstituted != b.TotalSubstituted {
			t.Fatalf("solver disagreement: %d vs %d\n%s", a.TotalSubstituted, b.TotalSubstituted, src)
		}
		prog.AnalyzeIntraprocedural()
	})
}

// FuzzIncrementalEditChain drives the incremental engine through
// fuzzer-chosen edit chains: pick a suite program and a configuration,
// then apply a chain of literal edits, threading the snapshot from run
// to run. At every step the incremental Report, solver effort
// included, must be reflect.DeepEqual to a from-scratch Analyze of the
// same source; any divergence means a reused summary was stale.
//
// Run with `go test -fuzz FuzzIncrementalEditChain -fuzztime 1m .` for
// a session; scripts/check.sh runs a short smoke.
func FuzzIncrementalEditChain(f *testing.F) {
	names := suite.Names()
	f.Add(0, 0, 1, 2, 3)
	f.Add(3, 2, 11, 0, 7)
	f.Add(7, 5, 5, 5, 5)
	f.Add(10, 6, -4, 100, 13)
	f.Fuzz(func(t *testing.T, progPick, cfgPick, e1, e2, e3 int) {
		if progPick < 0 {
			progPick = -progPick
		}
		if cfgPick < 0 {
			cfgPick = -cfgPick
		}
		src := suite.Generate(names[progPick%len(names)], 1).Source
		cfgs := incrementalConfigs()
		cfg := cfgs[cfgPick%len(cfgs)]
		cache := ipcp.NewMemoryCache()
		var snap *ipcp.Snapshot
		for _, pick := range []int{e1, e2, e3} {
			if next, ok := editProgram(t, src, pick); ok {
				src = next
			}
			prog, err := ipcp.Load(src)
			if err != nil {
				t.Fatalf("edited suite program no longer loads: %v\n%s", err, src)
			}
			inc, nextSnap := prog.AnalyzeIncremental(cfg, snap, cache)
			scratch := prog.Analyze(cfg)
			normalizeIncrementalReports(scratch, inc)
			if !reflect.DeepEqual(scratch, inc) {
				t.Fatalf("incremental report diverges from scratch under %+v\n%s", cfg, src)
			}
			snap = nextSnap
		}
	})
}

// FuzzSummaryCodec throws arbitrary bytes at the summary decoders. The
// invariant: decoding never panics, and any value that does decode
// survives a re-encode/re-decode round trip unchanged (what the
// content-addressed store assumes). Byte-level canonicity is not
// claimed: varint decoding tolerates padded forms.
//
// Run with `go test -fuzz FuzzSummaryCodec -fuzztime 1m .` for a session.
func FuzzSummaryCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(summary.EncodeProc(&summary.ProcSummary{Name: "P", SourceHash: "h"}))
	f.Add(summary.EncodeProc(&summary.ProcSummary{
		Name:       "Q",
		SourceHash: "h2",
		Callees:    []string{"P"},
		Returns: &summary.ReturnSummary{
			Result: &summary.Op{Name: "+", Args: []summary.Expr{
				&summary.Formal{Index: 0, Name: "N"}, &summary.Const{Val: 3}}},
			Formal: []summary.Expr{nil},
		},
		ModFormals: []bool{true},
		RefFormals: []bool{true},
		ModGlobals: []int{0},
		RefGlobals: []int{0, 1},
	}))
	f.Add(summary.EncodeProc(&summary.ProcSummary{
		Name:       "Q",
		SourceHash: "h2",
		Callees:    []string{"P"},
		Sites:      []*summary.SiteSummary{{Callee: "P", Formal: []summary.Expr{&summary.Const{Val: 1}}}},
	}))
	// A shared subterm: the node table writes the one mul node once and
	// every operator and entry that uses it refers back to it.
	shared := &summary.Op{Name: "mul", Args: []summary.Expr{
		&summary.Formal{Index: 0, Name: "N"}, &summary.Const{Val: 2}}}
	f.Add(summary.EncodeProc(&summary.ProcSummary{
		Name:       "R",
		SourceHash: "h3",
		Returns: &summary.ReturnSummary{
			Result: &summary.Op{Name: "add", Args: []summary.Expr{shared, shared}},
			Formal: []summary.Expr{shared},
		},
		Sites: []*summary.SiteSummary{{Callee: "P", Formal: []summary.Expr{shared, nil, shared}}},
	}))
	f.Add(summary.EncodeSnapshot(&summary.Snapshot{
		ConfigKey:   "ck",
		GlobalsHash: "gh",
		Procs: map[string]summary.ProcStamp{
			"P": {SourceHash: "h", Key: summary.KeyOf("proc", "P")},
			"Q": {SourceHash: "h2", Key: summary.KeyOf("proc", "Q")},
		},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		if s, err := summary.DecodeProc(data); err == nil {
			s2, err := summary.DecodeProc(summary.EncodeProc(s))
			if err != nil || !reflect.DeepEqual(s, s2) {
				t.Fatalf("procedure round trip broken on %x: %v", data, err)
			}
		}
		if s, err := summary.DecodeSnapshot(data); err == nil {
			s2, err := summary.DecodeSnapshot(summary.EncodeSnapshot(s))
			if err != nil || !reflect.DeepEqual(s, s2) {
				t.Fatalf("snapshot round trip broken on %x: %v", data, err)
			}
		}
	})
}
