package ipcp_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ipcp"
	"ipcp/internal/suite"
)

// This file tests the context-aware analysis entry points the server
// depends on: an unexpired context must not perturb the result in any
// way, and a canceled or expired one must abandon the run promptly
// with an error wrapping both ErrCanceled and the context's own error.

func contextTestProgram(t *testing.T) *ipcp.Program {
	t.Helper()
	return ipcp.MustLoad(suite.Generate("ocean", 2).Source)
}

func TestAnalyzeContextMatchesAnalyze(t *testing.T) {
	prog := contextTestProgram(t)
	for _, cfg := range []ipcp.Config{
		{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true},
		{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true, DependenceSolver: true},
		{Jump: ipcp.Literal, Complete: true},
	} {
		want := prog.Analyze(cfg)
		got, err := prog.AnalyzeContext(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%+v: AnalyzeContext: %v", cfg, err)
		}
		normalizeReports([]*ipcp.Report{want, got})
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%+v: AnalyzeContext result differs from Analyze", cfg)
		}
	}
}

func TestAnalyzeContextCanceled(t *testing.T) {
	prog := contextTestProgram(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := prog.AnalyzeContext(ctx, ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true})
	if rep != nil {
		t.Fatalf("canceled AnalyzeContext returned a report")
	}
	if !errors.Is(err, ipcp.ErrCanceled) {
		t.Fatalf("error %v does not wrap ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

func TestAnalyzeContextDeadline(t *testing.T) {
	prog := contextTestProgram(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	// Complete mode exercises the fixpoint path's per-pass check too.
	_, err := prog.AnalyzeContext(ctx, ipcp.Config{Jump: ipcp.Polynomial, Complete: true})
	if !errors.Is(err, ipcp.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap ErrCanceled and DeadlineExceeded", err)
	}
}

func TestAnalyzeIncrementalContext(t *testing.T) {
	prog := contextTestProgram(t)
	cfg := ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true}
	want, _ := prog.AnalyzeIncremental(cfg, nil, nil)

	cache := ipcp.NewMemoryCache()
	got, snap, err := prog.AnalyzeIncrementalContext(context.Background(), cfg, nil, cache)
	if err != nil {
		t.Fatalf("AnalyzeIncrementalContext: %v", err)
	}
	if snap == nil || snap.Procedures() == 0 {
		t.Fatalf("AnalyzeIncrementalContext returned an empty snapshot")
	}
	normalizeReports([]*ipcp.Report{want, got})
	if !reflect.DeepEqual(want, got) {
		t.Errorf("AnalyzeIncrementalContext result differs from AnalyzeIncremental")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := prog.AnalyzeIncrementalContext(ctx, cfg, snap, cache); !errors.Is(err, ipcp.ErrCanceled) {
		t.Fatalf("canceled incremental run: error %v does not wrap ErrCanceled", err)
	}
}

func TestAnalyzeMatrixContext(t *testing.T) {
	prog := contextTestProgram(t)
	cfgs := ipcp.FullMatrix()[:4]

	want := prog.AnalyzeMatrix(cfgs, 2)
	got, err := prog.AnalyzeMatrixContext(context.Background(), cfgs, 2)
	if err != nil {
		t.Fatalf("AnalyzeMatrixContext: %v", err)
	}
	normalizeReports(want)
	normalizeReports(got)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("AnalyzeMatrixContext results differ from AnalyzeMatrix")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := prog.AnalyzeMatrixContext(ctx, cfgs, 2); !errors.Is(err, ipcp.ErrCanceled) {
		t.Fatalf("canceled matrix run: error %v does not wrap ErrCanceled", err)
	}
}

// pollContext reports cancellation from the fireAt-th call of Err on.
// The analysis polls its context only through Err, so this cancels a
// run at a chosen poll.
type pollContext struct {
	context.Context
	fireAt int64
	polls  atomic.Int64
}

func (c *pollContext) Err() error {
	if c.polls.Add(1) >= c.fireAt {
		return context.Canceled
	}
	return nil
}

// TestAnalyzeMatrixContextMidRun cancels a matrix at polls spread over
// the run after the first shared stage 1: two (MOD, return JFs) keys of
// four flavors each, on two workers. Each member polls when its
// propagate row opens and again once it holds its key's stage 1, so by
// the fifth poll at least one stage 1 is built. Every run must fail
// with ErrCanceled and no reports, and leave no goroutine behind.
func TestAnalyzeMatrixContextMidRun(t *testing.T) {
	prog := contextTestProgram(t)
	var cfgs []ipcp.Config
	for _, j := range ipcp.JumpFunctions {
		cfgs = append(cfgs,
			ipcp.Config{Jump: j, ReturnJumpFunctions: true, MOD: true},
			ipcp.Config{Jump: j, MOD: true})
	}
	full := &pollContext{Context: context.Background(), fireAt: math.MaxInt64}
	if _, err := prog.AnalyzeMatrixContext(full, cfgs, 2); err != nil {
		t.Fatalf("uncanceled run: %v", err)
	}
	total := full.polls.Load()

	before := runtime.NumGoroutine()
	for fireAt := int64(5); fireAt <= total; fireAt += (total-5)/8 + 1 {
		ctx := &pollContext{Context: context.Background(), fireAt: fireAt}
		reps, err := prog.AnalyzeMatrixContext(ctx, cfgs, 2)
		if reps != nil || !errors.Is(err, ipcp.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled at poll %d of %d: %d reports, error %v", fireAt, total, len(reps), err)
		}
	}
	// A worker that has signalled completion may still be unwinding.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running after the canceled runs, %d before", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}
