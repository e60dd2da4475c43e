package ipcp

import (
	"fmt"

	"ipcp/internal/mf/ast"
	"ipcp/internal/mf/parser"
	"ipcp/internal/mf/sema"
)

// TransformedSource implements the paper's output option (§4.1,
// "Recording the results"): "the analyzer can produce a transformed
// version of the original source in which the interprocedural constants
// are textually substituted into the code."
//
// The transformation is conservative so that the result is always a
// semantically equivalent MiniFortran program: a constant (name, value)
// from CONSTANTS(p) is substituted only when the procedure — including
// everything it calls — never modifies that name, in which case *every*
// textual reference reads the entry value and may become the literal.
// (References in procedures that conditionally reassign the name are
// exactly the ones a textual substitution could corrupt, so they stay;
// Report.TotalSubstituted, which works at the IR level, also counts the
// references before the reassignment.)
//
// The mod/ref facts come from the Program's cached lowering and MOD
// summary — the source is reparsed only to obtain a private AST copy to mutate, never
// reanalyzed. Name-based matching is sound because a MiniFortran unit
// has a single flat namespace: within one unit, a bare name denotes one
// symbol, and array symbols never enter the substitution map.
//
// It returns the transformed source and the number of references
// replaced.
func (p *Program) TransformedSource(rep *Report) (string, int, error) {
	// Private AST copy to rewrite: reparse our own rendering (parse
	// only — no semantic analysis, no IR lowering).
	file, err := parser.Parse(ast.Format(p.sp.File))
	if err != nil {
		return "", 0, fmt.Errorf("ipcp: internal reparse failed: %w", err)
	}
	byName := make(map[string]*ast.Unit, len(file.Units))
	for _, u := range file.Units {
		byName[u.Name] = u
	}

	irp, mods := p.transformFacts()

	total := 0
	for _, u := range p.sp.Units {
		pr := rep.Procedure(u.Name)
		if pr == nil || len(pr.Constants) == 0 {
			continue
		}
		proc := irp.ProcByName[u.Name]

		// Resolve each substitutable constant to the name it is read
		// under inside this unit, using the original (already analyzed)
		// symbol tables.
		values := make(map[string]int64)
		for _, c := range pr.Constants {
			switch {
			case !c.Global:
				s := u.Symbols[c.Name]
				if s == nil || s.Kind != sema.ParamSym || s.IsArray() {
					continue
				}
				if mods.ModFormal(proc, s.ParamIndex) {
					continue // reassigned somewhere: unsafe to substitute all refs
				}
				values[s.Name] = c.Value
			default:
				// Globals are named BLOCK.NAME canonically; find this
				// unit's view of that global.
				for _, s := range u.CommonVars {
					if s.Global != nil && s.Global.String() == c.Name && !s.IsArray() {
						g := irp.Globals[s.Global.ID]
						if !mods.ModGlobal(proc, g) {
							values[s.Name] = c.Value
						}
						break
					}
				}
			}
		}
		if len(values) == 0 {
			continue
		}
		au := byName[u.Name]
		if au == nil {
			continue
		}

		ast.RewriteExprs(au, func(e ast.Expr) ast.Expr {
			ref, ok := e.(*ast.VarRef)
			if !ok || len(ref.Indexes) != 0 {
				return e
			}
			v, found := values[ref.Name]
			if !found {
				return e
			}
			total++
			return &ast.IntLit{Value: v, LitPos: ref.NamePos}
		})
	}
	return ast.Format(file), total, nil
}
