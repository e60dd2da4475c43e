package ipcp

import (
	"ipcp/internal/analysis/inline"
	"ipcp/internal/core"
	"ipcp/internal/ir/irbuild"
)

// IntegrationBaseline runs the paper's §5 comparison, for which "data
// is not yet available" in 1993: Wegman & Zadeck proposed finding
// interprocedural constants by *procedure integration* (inlining)
// followed by ordinary intraprocedural constant propagation. Because
// integration makes call paths explicit, it can find strictly more
// constants than the jump-function framework, which meets the values of
// all call sites into a single CONSTANTS set per procedure.
//
// It returns four numbers over this program:
//
//	ipcp        — substitutions under the polynomial jump-function
//	              configuration (return JFs + MOD), i.e. the framework
//	              at full strength;
//	integration — substitutions found by intraprocedural propagation
//	              after inlining every non-recursive call;
//	intra       — substitutions of plain intraprocedural propagation
//	              without inlining (Table 3, column 4);
//	inlinedSites — call sites the integrator expanded.
func (p *Program) IntegrationBaseline() (ipcp, integration, intra, inlinedSites int) {
	ipcp = core.Analyze(p.sp, core.Config{
		Jump: Polynomial.kind(), ReturnJFs: true, MOD: true,
	}).TotalSubstituted
	intra = core.AnalyzeIntraprocedural(p.sp).TotalSubstituted

	inlined, stats := inline.Program(irbuild.Build(p.sp), nil)
	integration = core.AnalyzeIntraproceduralIR(inlined).TotalSubstituted
	return ipcp, integration, intra, stats.Inlined
}
