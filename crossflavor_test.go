package ipcp_test

import (
	"reflect"
	"testing"

	"ipcp"
	"ipcp/internal/suite"
)

// This file is the differential proof that one summary cache shared
// across configurations is invisible in the results: every report stays
// reflect.DeepEqual to isolated-cache and from-scratch runs.

// TestCrossFlavorSharedCache runs the four-flavor sweep the way
// cmd/ipcp -all does — one cache for all flavors — and pins that each
// report equals its isolated-cache counterpart and scratch.
func TestCrossFlavorSharedCache(t *testing.T) {
	for _, name := range []string{"ocean", "linpackd", "spec77"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog := ipcp.MustLoad(suite.Generate(name, 2).Source)
			shared := ipcp.NewMemoryCache()
			var sharedReports []*ipcp.Report
			for _, j := range ipcp.JumpFunctions {
				cfg := ipcp.Config{Jump: j, ReturnJumpFunctions: true, MOD: true}
				rep, _ := prog.AnalyzeIncremental(cfg, nil, shared)
				sharedReports = append(sharedReports, rep)
			}

			for i, j := range ipcp.JumpFunctions {
				cfg := ipcp.Config{Jump: j, ReturnJumpFunctions: true, MOD: true}
				rep, _ := prog.AnalyzeIncremental(cfg, nil, ipcp.NewMemoryCache())
				scratch := prog.Analyze(cfg)
				normalizeIncrementalReports(scratch, rep, sharedReports[i])
				if !reflect.DeepEqual(rep, sharedReports[i]) {
					t.Fatalf("%v: shared-cache report diverges from isolated-cache report", j)
				}
				if !reflect.DeepEqual(scratch, sharedReports[i]) {
					t.Fatalf("%v: shared-cache report diverges from scratch", j)
				}
			}
		})
	}
}

// TestCrossConfigSharedCacheGrid drives the full configuration grid —
// flavors, precision toggles, complete propagation, the dependence
// solver — through one long-lived cache, in order and then again in
// reverse, comparing every report against an isolated-cache run of the
// same configuration. Whatever hits each pairing produces, the reports
// must be identical: a cache shared across arbitrary configurations is
// invisible in the results.
func TestCrossConfigSharedCacheGrid(t *testing.T) {
	prog := ipcp.MustLoad(suite.Generate("mdg", 2).Source)
	cfgs := incrementalConfigs()
	order := make([]ipcp.Config, 0, 2*len(cfgs))
	order = append(order, cfgs...)
	for i := len(cfgs) - 1; i >= 0; i-- {
		order = append(order, cfgs[i])
	}
	shared := ipcp.NewMemoryCache()
	for step, cfg := range order {
		rep, _ := prog.AnalyzeIncremental(cfg, nil, shared)
		iso, _ := prog.AnalyzeIncremental(cfg, nil, ipcp.NewMemoryCache())
		normalizeIncrementalReports(rep, iso)
		if !reflect.DeepEqual(rep, iso) {
			t.Fatalf("step %d: shared-cache report diverges from isolated under %+v", step, cfg)
		}
	}
	// The reverse sweep replays configurations already cached: every one
	// must now be a 100% full-record hit.
	rep, _ := prog.AnalyzeIncremental(cfgs[0], nil, shared)
	if st := rep.Incremental; st.CacheHits != st.TotalProcedures {
		t.Fatalf("replayed configuration missed the cache: %+v", st)
	}
}

// TestSharedCacheKeySplit pins the key-derivation contract one shared
// cache rests on: the jump-function flavor and everything stage 1
// consumes (return jump functions, MOD) each split the key.
func TestSharedCacheKeySplit(t *testing.T) {
	base := ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true}
	for _, j := range ipcp.JumpFunctions {
		cfg := base
		cfg.Jump = j
		if j != base.Jump && ipcp.FlavorCacheKey(cfg) == ipcp.FlavorCacheKey(base) {
			t.Fatalf("flavor %v did not change the flavor key", j)
		}
	}
	for _, mut := range []struct {
		name string
		cfg  ipcp.Config
	}{
		{"no return JFs", ipcp.Config{Jump: ipcp.PassThrough, MOD: true}},
		{"no MOD", ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true}},
	} {
		if ipcp.FlavorCacheKey(mut.cfg) == ipcp.FlavorCacheKey(base) {
			t.Fatalf("%s shares a flavor key with the base configuration", mut.name)
		}
	}
}
