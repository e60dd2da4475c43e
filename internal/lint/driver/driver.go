// Package driver applies the lint suite to type-checked Go packages.
// It is the stdlib-only replacement for the x/tools analysis drivers
// (the module is dependency-free by policy), and ipcplint runs through
// it as a vet tool (`go vet -vettool=ipcplint ./...`): the go command
// hands the tool one JSON config per compilation unit; see
// unitchecker.go.
package driver

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"ipcp/internal/lint"
)

// A Unit is one type-checked package ready for analysis.
type Unit struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// A Finding is one diagnostic attributed to its analyzer.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the vet-style line: position, message, analyzer.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Analyzer)
}

// RunAnalyzers applies the analyzers to one unit, resolving
// //lint:ignore suppressions. Malformed suppressions are themselves
// findings (analyzer "lint"), so every ignore in the tree carries its
// audit reason.
//
// Test files are exempt: the invariants audit production paths, and a
// test's deliberate fault injection — dropped Close errors on cleanup,
// hand-built lattice cells in expectation tables — is the harness, not
// a contract violation. Vet units include _test.go sources, so the
// exemption is applied here.
func RunAnalyzers(unit *Unit, analyzers []*lint.Analyzer) ([]Finding, error) {
	srcFiles := unit.Files
	if n := len(srcFiles); n > 0 {
		kept := make([]*ast.File, 0, n)
		for _, f := range srcFiles {
			if !strings.HasSuffix(unit.Fset.Position(f.Pos()).Filename, "_test.go") {
				kept = append(kept, f)
			}
		}
		srcFiles = kept
	}
	sup := lint.BuildSuppressions(unit.Fset, unit.Files)
	var findings []Finding
	for _, d := range sup.Malformed {
		findings = append(findings, Finding{
			Analyzer: "lint",
			Pos:      unit.Fset.Position(d.Pos),
			Message:  d.Message,
		})
	}
	for _, a := range analyzers {
		pass := &lint.Pass{
			Analyzer: a,
			Fset:     unit.Fset,
			Files:    srcFiles,
			Pkg:      unit.Pkg,
			Info:     unit.Info,
		}
		name := a.Name
		pass.Report = func(d lint.Diagnostic) {
			if sup.Suppressed(unit.Fset, name, d.Pos) {
				return
			}
			findings = append(findings, Finding{
				Analyzer: name,
				Pos:      unit.Fset.Position(d.Pos),
				Message:  d.Message,
			})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: analyzing %s: %w", a.Name, unit.Path, err)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// newInfo allocates the types.Info maps the analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
