package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"ipcp"
	"ipcp/internal/mf/ast"
	"ipcp/internal/mf/parser"
	"ipcp/internal/suite"
)

// Every input is generated from the workload seed before the set-up
// clock starts; the program under test only ever sees the generated
// sources.

// editChain is a base source followed by a chain of one-literal edits:
// sources[i] is sources[i-1] with one integer literal of a procedure
// body raised by 1–5, the kind of change the repository's incremental
// tests make. Callers walk the chain as a palindrome (0, 1, …, M,
// M−1, …, 0, 1, …), so every step is a one-literal change and only
// M+1 sources need a reference.
type editChain struct {
	sources []string
}

func newEditChain(base string, edits int, r *rand.Rand) (editChain, error) {
	file, err := parser.Parse(base)
	if err != nil {
		return editChain{}, fmt.Errorf("edit chain: %w", err)
	}
	var lits []*ast.IntLit
	for _, u := range file.Units {
		ast.RewriteExprs(u, func(e ast.Expr) ast.Expr {
			if lit, ok := e.(*ast.IntLit); ok {
				lits = append(lits, lit)
			}
			return e
		})
	}
	c := editChain{sources: []string{base}}
	if len(lits) == 0 {
		return c, nil
	}
	for i := 0; i < edits; i++ {
		lits[r.Intn(len(lits))].Value += int64(1 + r.Intn(5))
		c.sources = append(c.sources, ast.Format(file))
	}
	return c, nil
}

// at returns the source index of the walk's n-th step.
func (c editChain) at(n int) int {
	m := len(c.sources) - 1
	if m == 0 {
		return 0
	}
	p := n % (2 * m)
	if p <= m {
		return p
	}
	return 2*m - p
}

// ---------------------------------------------------------------------------
// study-tables

// studyRandomLines is the line budget of the suite.Random programs
// added to the 12-program suite (5641 lines at DefaultScale): they are
// the only inputs with genuinely polynomial jump functions. Drawing
// many small programs to a small line budget, rather than a program
// count, keeps the seeded draw from moving the op's cost much.
const studyRandomLines = 320

type studyInputs struct {
	programs []*suite.Program // the 12 suite programs, then the random draw
	skipped  int              // random candidates the oracle could not confirm

	// randomRows[i] is the oracle-confirmed reference row of the i-th
	// random program.
	randomRows [][]string
}

func genStudy(seed int64) (studyInputs, error) {
	in := studyInputs{programs: suite.Programs()}
	r := rand.New(rand.NewSource(seed))
	lines := 0
	for lines < studyRandomLines {
		p := suite.Random(r.Int63(), 3+r.Intn(4))
		prog, err := ipcp.Load(p.Source)
		if err != nil {
			return in, fmt.Errorf("%s: %w", p.Name, err)
		}
		row, err := studyReferenceRow(prog, p.Name)
		if err != nil {
			in.skipped++
			continue
		}
		in.programs = append(in.programs, p)
		in.randomRows = append(in.randomRows, row)
		lines += prog.Stats().Lines
	}
	return in, nil
}

func (in studyInputs) encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "skipped %d\n", in.skipped)
	for _, p := range in.programs {
		fmt.Fprintf(&b, "%s\n%s\n", p.Name, p.Source)
	}
	return b.Bytes()
}

// ---------------------------------------------------------------------------
// edit-loop

const (
	editProgram = "doduc"
	editScale   = 24
	editChainN  = 64
)

func genEdit(seed int64, scale, edits int) (editChain, error) {
	base := suite.Generate(editProgram, scale).Source
	return newEditChain(base, edits, rand.New(rand.NewSource(seed)))
}

func (c editChain) encode() []byte {
	var b bytes.Buffer
	for i, s := range c.sources {
		fmt.Fprintf(&b, "-- source %d\n%s", i, s)
	}
	return b.Bytes()
}

// ---------------------------------------------------------------------------
// serve-fleet

const (
	fleetScale           = suite.DefaultScale
	fleetClients         = 2
	fleetRandomPerCaller = 2
	fleetChainN          = 16
	fleetPlanOps         = 4096
	// Random lineages are drawn at this size and kept only when their
	// line count falls in [fleetRandomMinLines, fleetRandomMaxLines],
	// so the seed moves a batch's cost little.
	fleetRandomSize     = 12
	fleetRandomMinLines = 90
	fleetRandomMaxLines = 130
)

type lineage struct {
	name, program string
	chain         editChain
}

type fleetInputs struct {
	clients [][]lineage // each client's own lineages
	skipped int         // random candidates the oracle could not confirm

	// plan[c][k] has bit i set when client c's k-th batch sends lineage
	// i's next edit rather than its unchanged source. Every batch edits
	// half of the client's lineages, the seed choosing which. Ops past
	// the plan wrap around.
	plan [][]uint64
}

// fleetEditShare is the share of a batch's items that are edits.
const fleetEditShare = 0.5

// genFleet splits the 12 suite programs between the clients — paired by
// source size, the seed deciding which of each pair a client owns, so
// both clients carry about the same work on every seed — and adds
// seeded random programs, then draws each lineage's edit chain and the
// batch plan. A random candidate joins only if its size is in the band
// and the oracle confirms the scratch analysis of every source in its
// chain.
func genFleet(seed int64, scale, chainN int) (fleetInputs, error) {
	r := rand.New(rand.NewSource(seed))
	progs := suite.Run(scale, 1, func(p *suite.Program) *suite.Program { return p })
	sort.SliceStable(progs, func(i, j int) bool { return len(progs[i].Source) < len(progs[j].Source) })
	in := fleetInputs{clients: make([][]lineage, fleetClients)}
	owned := make([][]*suite.Program, fleetClients)
	for i := 0; i+1 < len(progs); i += 2 {
		first := r.Intn(2)
		owned[first] = append(owned[first], progs[i])
		owned[1-first] = append(owned[1-first], progs[i+1])
	}
	for c := range owned {
		add := func(p *suite.Program, chain editChain) {
			in.clients[c] = append(in.clients[c], lineage{name: fmt.Sprintf("c%d-l%d", c, len(in.clients[c])), program: p.Name, chain: chain})
		}
		for _, p := range owned[c] {
			chain, err := newEditChain(p.Source, chainN, r)
			if err != nil {
				return in, fmt.Errorf("%s: %w", p.Name, err)
			}
			add(p, chain)
		}
		for k := 0; k < fleetRandomPerCaller; {
			p := suite.Random(r.Int63(), fleetRandomSize)
			if n := strings.Count(p.Source, "\n"); n < fleetRandomMinLines || n > fleetRandomMaxLines {
				continue
			}
			chain, err := newEditChain(p.Source, chainN, r)
			if err != nil {
				return in, fmt.Errorf("%s: %w", p.Name, err)
			}
			if !oracleConfirms(chain.sources) {
				in.skipped++
				continue
			}
			add(p, chain)
			k++
		}
	}
	in.plan = make([][]uint64, fleetClients)
	for c := range in.plan {
		n := len(in.clients[c])
		in.plan[c] = make([]uint64, fleetPlanOps)
		for k := range in.plan[c] {
			for _, i := range r.Perm(n)[:int(fleetEditShare*float64(n))] {
				in.plan[c][k] |= 1 << i
			}
		}
	}
	return in, nil
}

func (in fleetInputs) encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "skipped %d\n", in.skipped)
	for c, ls := range in.clients {
		for _, l := range ls {
			fmt.Fprintf(&b, "client %d lineage %s program %s\n", c, l.name, l.program)
			b.Write(l.chain.encode())
		}
		fmt.Fprintf(&b, "plan %d %v\n", c, in.plan[c])
	}
	return b.Bytes()
}
