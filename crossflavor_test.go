package ipcp_test

import (
	"reflect"
	"testing"

	"ipcp"
	"ipcp/internal/suite"
)

// This file is the differential proof of the flavor-split cache keys:
// one summary cache shared across jump-function flavors must change
// only the cache traffic — stage-1 (flavor-invariant) summaries are
// fetched instead of recomputed — and never the reports, which stay
// reflect.DeepEqual to isolated-cache and from-scratch runs.

// TestCrossFlavorSharedCache runs the four-flavor sweep the way
// cmd/ipcp -all now does — one cache for all flavors — and pins the
// sharing contract: the first flavor populates the stage-1 layer, every
// later flavor hits it (Stage1Hits > 0) without full-record hits
// masking the effect, the shared cache stores strictly fewer bytes
// than four isolated caches, and each report equals its isolated-cache
// counterpart and scratch.
func TestCrossFlavorSharedCache(t *testing.T) {
	for _, name := range []string{"ocean", "linpackd", "spec77"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog := ipcp.MustLoad(suite.Generate(name, 2).Source)
			shared := ipcp.NewMemoryCache()
			var sharedReports []*ipcp.Report
			for i, j := range ipcp.JumpFunctions {
				cfg := ipcp.Config{Jump: j, ReturnJumpFunctions: true, MOD: true}
				rep, _ := prog.AnalyzeIncremental(cfg, nil, shared)
				st := rep.Incremental
				if i == 0 && st.Stage1Hits != 0 {
					t.Fatalf("%v on an empty cache reported %d stage-1 hits", j, st.Stage1Hits)
				}
				if i > 0 && st.Stage1Hits != st.TotalProcedures {
					t.Fatalf("%v after %d flavors: %d stage-1 hits, want %d (shared blobs are flavor-invariant)",
						j, i, st.Stage1Hits, st.TotalProcedures)
				}
				if st.Stage1Hits < st.CacheHits {
					t.Fatalf("%v: stage-1 hits %d < full-record hits %d (a full record contains its stage-1 half)",
						j, st.Stage1Hits, st.CacheHits)
				}
				sharedReports = append(sharedReports, rep)
			}
			sharedBytes := shared.Stats().BytesSaved

			var isolatedBytes int64
			for i, j := range ipcp.JumpFunctions {
				cfg := ipcp.Config{Jump: j, ReturnJumpFunctions: true, MOD: true}
				iso := ipcp.NewMemoryCache()
				rep, _ := prog.AnalyzeIncremental(cfg, nil, iso)
				isolatedBytes += iso.Stats().BytesSaved
				scratch := prog.Analyze(cfg)
				normalizeIncrementalReports(scratch, rep, sharedReports[i])
				if !reflect.DeepEqual(rep, sharedReports[i]) {
					t.Fatalf("%v: shared-cache report diverges from isolated-cache report", j)
				}
				if !reflect.DeepEqual(scratch, sharedReports[i]) {
					t.Fatalf("%v: shared-cache report diverges from scratch", j)
				}
			}
			if sharedBytes >= isolatedBytes {
				t.Fatalf("shared cache stored %d bytes, isolated caches %d: key split saved nothing",
					sharedBytes, isolatedBytes)
			}
		})
	}
}

// TestCrossConfigSharedCacheGrid drives the full configuration grid —
// flavors, precision toggles, complete propagation, the dependence
// solver — through one long-lived cache, in order and then again in
// reverse, comparing every report against an isolated-cache run of the
// same configuration. Whatever mixture of stage-1 and full-record hits
// each pairing produces, the reports must be identical: a cache shared
// across arbitrary configurations is invisible in the results.
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
		st := rep.Incremental
		if st.Stage1Hits < st.CacheHits {
			t.Fatalf("step %d %+v: stage-1 hits %d < full hits %d", step, cfg, st.Stage1Hits, st.CacheHits)
		}
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

// TestSharedCacheKeySplit pins the key-derivation contract the sharing
// rests on: configurations that differ only in jump-function flavor
// share a stage-1 key but not a flavor key, while toggling anything
// stage 1 consumes (return jump functions, MOD) splits both.
func TestSharedCacheKeySplit(t *testing.T) {
	base := ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true}
	for _, j := range ipcp.JumpFunctions {
		cfg := base
		cfg.Jump = j
		if got, want := ipcp.SharedCacheKey(cfg), ipcp.SharedCacheKey(base); got != want {
			t.Fatalf("flavor %v changed the shared key: %s != %s", j, got, want)
		}
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
		if ipcp.SharedCacheKey(mut.cfg) == ipcp.SharedCacheKey(base) {
			t.Fatalf("%s shares a stage-1 key with the base configuration", mut.name)
		}
		if ipcp.FlavorCacheKey(mut.cfg) == ipcp.FlavorCacheKey(base) {
			t.Fatalf("%s shares a flavor key with the base configuration", mut.name)
		}
	}
}
