package core

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"ipcp/internal/analysis/callgraph"
	"ipcp/internal/core/jump"
	"ipcp/internal/ir"
	"ipcp/internal/ir/irbuild"
	"ipcp/internal/mf/parser"
	"ipcp/internal/mf/sema"
	"ipcp/internal/par"
	"ipcp/internal/suite"
)

// The wave schedule is what makes parallel stage 1 equivalent to the
// sequential bottom-up walk; these tests pin its two load-bearing
// invariants. Breaking either one (say, by leveling nodes instead of
// SCCs, or by publishing summaries inside a wave) would not necessarily
// trip the race detector — it would silently change results — so the
// invariants get direct coverage here in addition to the end-to-end
// differential suite.

func waveGraph(t testing.TB, source string) *callgraph.Graph {
	t.Helper()
	f, err := parser.Parse(source)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sema.Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	return callgraph.Build(irbuild.Build(sp))
}

// TestSCCWavesInvariants checks, over a spread of random call graphs:
// (1) the waves partition the node set exactly, and (2) every callee
// outside a node's own SCC sits in a strictly earlier wave — the
// property that makes deferred publication safe.
func TestSCCWavesInvariants(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		cg := waveGraph(t, suite.Random(seed, int(3+seed%8)).Source)
		waves := sccWaves(cg)

		waveOf := map[*callgraph.Node]int{}
		total := 0
		for w, wave := range waves {
			if len(wave) == 0 {
				t.Fatalf("seed %d: empty wave %d", seed, w)
			}
			for _, n := range wave {
				if _, dup := waveOf[n]; dup {
					t.Fatalf("seed %d: %s appears in two waves", seed, n.Proc.Name)
				}
				waveOf[n] = w
				total++
			}
		}
		if total != len(cg.Nodes) {
			t.Fatalf("seed %d: waves cover %d of %d nodes", seed, total, len(cg.Nodes))
		}
		for n, w := range waveOf {
			for _, m := range n.Callees {
				if m.SCC == n.SCC {
					continue // intra-SCC edges never exchange summaries
				}
				if waveOf[m] >= w {
					t.Fatalf("seed %d: callee %s (wave %d) not before caller %s (wave %d)",
						seed, m.Proc.Name, waveOf[m], n.Proc.Name, w)
				}
			}
		}
	}
}

// TestSCCWavesRecursion pins the wave placement of a recursive clique:
// mutually recursive procedures share an SCC, land in one wave
// together, and their external callee still precedes them.
func TestSCCWavesRecursion(t *testing.T) {
	cg := waveGraph(t, `
PROGRAM P
  CALL A(3)
END
SUBROUTINE A(N)
  INTEGER N
  CALL B(N)
  RETURN
END
SUBROUTINE B(N)
  INTEGER N
  IF (N .GT. 0) THEN
    CALL A(N - 1)
  ENDIF
  CALL LEAF(N)
  RETURN
END
SUBROUTINE LEAF(N)
  INTEGER N
  RETURN
END
`)
	waves := sccWaves(cg)
	waveOf := map[string]int{}
	for w, wave := range waves {
		for _, n := range wave {
			waveOf[n.Proc.Name] = w
		}
	}
	if waveOf["A"] != waveOf["B"] {
		t.Errorf("recursive pair split across waves: A=%d B=%d", waveOf["A"], waveOf["B"])
	}
	if waveOf["LEAF"] >= waveOf["A"] {
		t.Errorf("external callee LEAF (wave %d) not before its recursive callers (wave %d)",
			waveOf["LEAF"], waveOf["A"])
	}
	if waveOf["P"] <= waveOf["A"] {
		t.Errorf("main (wave %d) not after the procedures it calls (wave %d)", waveOf["P"], waveOf["A"])
	}
}

// TestAnalyzeMatrixSharesStage1 pins the matrix runner's sharing: the
// 16-configuration sweep converts a program to SSA form and runs stage
// 1 once per (MOD, return JFs) group, four times in all, and every
// member of a group reports its group's program. A Complete
// configuration rewrites its program, so it keeps one of its own.
func TestAnalyzeMatrixSharesStage1(t *testing.T) {
	sp := mustSema(t, suite.Generate("ocean", 2).Source)
	cfgs := append(fullMatrix(1), Config{Jump: jump.Polynomial, ReturnJFs: true, MOD: true, Complete: true})
	keyOf := make(map[*ir.Program]Stage1Key)
	for i, r := range AnalyzeMatrix(sp, cfgs, 2) {
		k, seen := keyOf[r.Prog]
		if seen && (cfgs[i].Complete || k != cfgs[i].Stage1Key()) {
			t.Fatalf("configuration %d %+v shares the program of key %+v", i, cfgs[i], k)
		}
		keyOf[r.Prog] = cfgs[i].Stage1Key()
	}
	if len(keyOf) != 5 {
		t.Fatalf("%d distinct programs, want 5: one per stage-1 group and one for the complete configuration", len(keyOf))
	}
}

// TestParallelFor covers stage 1's fan-out across worker counts,
// including the inline workers=1 path and pools wider than a wave:
// SSA construction reaches no procedure twice (BuildSSA panics on a
// second call), and the wave-scheduled value numbering reaches every
// procedure and gives each one outside a call-graph cycle its return
// jump functions.
func TestParallelFor(t *testing.T) {
	src := suite.Generate("ocean", 2).Source
	cfg := Config{Jump: jump.Polynomial, MOD: true, ReturnJFs: true}
	for _, workers := range []int{-4, 0, 1, 2, 3, 8, 64} {
		s := newStage1(irbuild.Build(mustSema(t, src)), cfg, nil, nil, nil)
		s.buildSSA(workers)
		s.stage1ReturnJFs(workers)
		for _, proc := range s.prog.Procs {
			if s.vns[proc] == nil {
				t.Fatalf("workers=%d: %s was not value-numbered", workers, proc.Name)
			}
			if got, want := s.retJFs.Get(proc) != nil, !s.cg.InCycle(s.cg.Nodes[proc]); got != want {
				t.Fatalf("workers=%d: %s has return jump functions %v, want %v", workers, proc.Name, got, want)
			}
		}
	}
}

// TestPoolSize pins the Workers resolution rule the Config documents,
// which par.For applies to the per-procedure stages: n > 0 is taken
// literally, and anything else means one worker per available CPU.
// Every item holds until the whole pool has been in flight for 20 ms,
// so a pool smaller than the rule says times out and a larger one has
// time to show as a peak above it.
func TestPoolSize(t *testing.T) {
	cpus := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ workers, pool int }{{3, 3}, {1, 1}, {0, cpus}, {-4, cpus}} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		full := make(chan struct{})
		var (
			mu             sync.Mutex
			inFlight, peak int
		)
		par.For(c.workers, 4*c.pool, func(int) {
			mu.Lock()
			inFlight++
			if inFlight > peak {
				peak = inFlight
				if peak == c.pool {
					time.AfterFunc(20*time.Millisecond, func() { close(full) })
				}
			}
			mu.Unlock()
			select {
			case <-full:
			case <-ctx.Done():
			}
			mu.Lock()
			inFlight--
			mu.Unlock()
		})
		cancel()
		if peak != c.pool {
			t.Errorf("Workers=%d: %d calls in flight at most, want %d", c.workers, peak, c.pool)
		}
	}
}
