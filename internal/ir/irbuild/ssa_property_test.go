package irbuild

import (
	"strings"
	"testing"

	"ipcp/internal/analysis/callgraph"
	"ipcp/internal/analysis/modref"
	"ipcp/internal/ir"
	"ipcp/internal/mf/parser"
	"ipcp/internal/mf/sema"
	"ipcp/internal/suite"
)

// TestSSADominanceProperty checks the defining SSA invariant over the
// benchmark suite and a batch of random programs: every use of an SSA
// value is dominated by its definition. For phi uses the definition must
// dominate the corresponding *predecessor* block (the use conceptually
// happens on the incoming edge).
func TestSSADominanceProperty(t *testing.T) {
	var sources []string
	for _, name := range suite.Names() {
		sources = append(sources, suite.Generate(name, 2).Source)
	}
	for seed := int64(1); seed <= 20; seed++ {
		sources = append(sources, suite.Random(seed, 6).Source)
	}

	for si, src := range sources {
		prog := buildVerified(t, src)
		cg := callgraph.Build(prog)
		mods := modref.Compute(prog, cg)
		for _, proc := range prog.Procs {
			proc.BuildSSA(mods.Oracle())
			proc.ComputeDominators()
			checkSSADominance(t, si, proc)
		}
	}
}

func checkSSADominance(t *testing.T, si int, proc *ir.Proc) {
	t.Helper()
	// Definition blocks: instruction defs at their block; entry-ish
	// values (EntryDef/UndefDef) at the entry block.
	defBlock := func(v *ir.Value) *ir.Block {
		if v.Def != nil {
			return v.Def.Block
		}
		return proc.Entry
	}
	for _, b := range proc.Blocks {
		for _, i := range b.Instrs {
			for a := range i.Args {
				val := i.Args[a].Val
				if val == nil {
					continue
				}
				db := defBlock(val)
				useBlock := b
				if i.Op == ir.OpPhi {
					if a >= len(b.Preds) {
						t.Fatalf("program %d: %s: phi arity mismatch", si, proc.Name)
					}
					useBlock = b.Preds[a]
				}
				if !ir.Dominates(db, useBlock) {
					t.Fatalf("program %d: %s: def of %v in %v does not dominate use in %v:\n%s",
						si, proc.Name, val, db, useBlock, proc)
				}
			}
		}
	}
	// Single-definition property: no SSA value is defined twice.
	seen := map[*ir.Value]bool{}
	note := func(v *ir.Value) {
		if v == nil {
			return
		}
		if seen[v] {
			t.Fatalf("program %d: %s: value %v defined twice", si, proc.Name, v)
		}
		seen[v] = true
	}
	for _, b := range proc.Blocks {
		for _, i := range b.Instrs {
			note(i.Dst)
			for _, d := range i.CallDefs {
				note(d)
			}
		}
	}
}

// TestSSAIdenticalOnRebuild lowers every suite program six times and
// builds SSA under the MOD oracle each time: the printed IR (phi order
// and value IDs included) must be the same on every rebuild. Map
// iteration order is randomized per range statement, so a phi placement
// or local-variable numbering that ranges over a map shows up here.
func TestSSAIdenticalOnRebuild(t *testing.T) {
	const rebuilds = 6
	for _, name := range suite.Names() {
		f, err := parser.Parse(suite.Generate(name, 4).Source)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		sp, err := sema.Analyze(f)
		if err != nil {
			t.Fatalf("%s: sema: %v", name, err)
		}
		var first string
		differ := 0
		for k := 0; k < rebuilds; k++ {
			prog := Build(sp)
			mods := modref.Compute(prog, callgraph.Build(prog))
			var sb strings.Builder
			for _, proc := range prog.Procs {
				proc.BuildSSA(mods.Oracle())
				sb.WriteString(proc.String())
			}
			if k == 0 {
				first = sb.String()
			} else if sb.String() != first {
				differ++
			}
		}
		if differ > 0 {
			t.Errorf("%s: %d of %d rebuilds print different SSA than the first", name, differ, rebuilds-1)
		}
	}
}
