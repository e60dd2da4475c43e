package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
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
// 16-configuration sweep converts a program to SSA form once per MOD
// setting, so every configuration reports its MOD setting's program,
// two in all. A Complete configuration, here the first of its key,
// joins that key's stage-1 product: when its dead-code elimination
// removes nothing it reports its key's program too, and when DCE
// rewrites the program, the rewrite is its own.
func TestAnalyzeMatrixSharesStage1(t *testing.T) {
	complete := Config{Jump: jump.Polynomial, ReturnJFs: true, MOD: true, Complete: true}
	cfgs := append([]Config{complete}, fullMatrix(1)...)
	for _, c := range []struct {
		name, src string
		rounds    int
	}{
		{"no dead code", noDeadCodeSrc, 0},
		{"two dce rounds", twoRoundSrc, 2},
	} {
		for _, workers := range []int{1, 2} {
			res := AnalyzeMatrix(mustSema(t, c.src), cfgs, workers)
			byMOD := make(map[bool]*ir.Program)
			for i, r := range res[1:] {
				if p, seen := byMOD[cfgs[i+1].MOD]; seen && p != r.Prog {
					t.Fatalf("%s, %d workers: configuration %d %+v does not report the program of MOD=%t",
						c.name, workers, i+1, cfgs[i+1], cfgs[i+1].MOD)
				}
				byMOD[cfgs[i+1].MOD] = r.Prog
			}
			if byMOD[false] == byMOD[true] {
				t.Fatalf("%s, %d workers: both MOD settings report one program", c.name, workers)
			}
			if got := res[0].DCERounds; got != c.rounds {
				t.Fatalf("%s, %d workers: DCERounds = %d, want %d", c.name, workers, got, c.rounds)
			}
			if shares := res[0].Prog == byMOD[true]; shares != (c.rounds == 0) {
				t.Fatalf("%s, %d workers: the complete configuration shares its key's program: %t, want %t",
					c.name, workers, shares, c.rounds == 0)
			}
		}
	}
}

// TestStage1ProductsShareSSA builds the two stage-1 products of one
// MOD setting, return jump functions on and off, at the same time over
// one SSA program, as a matrix does. Under -race it catches any write
// value numbering makes to the program it shares, such as renumbering
// the blocks' RPO; under either build, each product must equal the one
// built over a program of its own.
func TestStage1ProductsShareSSA(t *testing.T) {
	sp := mustSema(t, suite.Generate("ocean", 2).Source)
	f := newSSAForm(irbuild.Build(sp), true, nil, nil, nil, false)
	f.buildSSA(2)
	var products [2]*stage1
	var wg sync.WaitGroup
	for k, ret := range []bool{false, true} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			products[k] = newStage1(f, ret)
			products[k].stage1ReturnJFs(2)
		}()
	}
	wg.Wait()
	for k, ret := range []bool{false, true} {
		alone := buildStage1(irbuild.Build(sp), Config{MOD: true, ReturnJFs: ret, Workers: 1}, nil)
		if got, want := renderStage1(products[k]), renderStage1(alone); got != want {
			t.Fatalf("return JFs %t: the product built beside the other differs from one built alone:\n%s\nwant\n%s", ret, got, want)
		}
	}
}

// renderStage1 prints a stage-1 product: every procedure's value
// numbers in program order, then its return jump functions.
func renderStage1(s *stage1) string {
	var sb strings.Builder
	for _, proc := range s.prog.Procs {
		fmt.Fprintf(&sb, "%s:", proc.Name)
		vn := s.vns[proc]
		for _, b := range proc.Blocks {
			for _, i := range b.Instrs {
				if i.Dst != nil {
					fmt.Fprintf(&sb, " %v", vn.ExprOf(i.Dst))
				}
			}
		}
		if r := s.retJFs.Get(proc); r != nil {
			fmt.Fprintf(&sb, " | result %v formals %v globals", r.Result, r.Formal)
			for _, g := range s.prog.ScalarGlobals {
				fmt.Fprintf(&sb, " %v", r.Global[g])
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
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
		s := newStage1(newSSAForm(irbuild.Build(mustSema(t, src)), cfg.MOD, nil, nil, nil, false), cfg.ReturnJFs)
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
