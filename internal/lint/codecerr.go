package lint

import (
	"go/ast"
	"go/types"
)

// errPkgs are the durability-contract packages: every error their
// APIs return is part of an acknowledgment protocol. A codec decode
// error distinguishes corruption from absence; a store Put error is
// the difference between "on every tier" and "silently dropped". The
// wal package is now an inert stub kept for old callers.
var errPkgs = []string{
	"ipcp/internal/summary",
	"ipcp/internal/wal",
}

// CodecErr enforces the durability ack contract: errors returned by
// the summary codec (Encode/Decode families) and the summary stores
// (Put, ...) must never be discarded — neither by calling in statement
// position nor by assigning the error to the blank identifier.
// Best-effort paths that genuinely may drop the error (e.g. a
// read-through fill whose tier already counts it) say so with
// //lint:ignore and a reason.
var CodecErr = &Analyzer{
	Name: "codecerr",
	Doc: `flag discarded errors from summary codec / WAL / store APIs

An acked Put that silently failed to reach a tier, or a decode error
folded into "miss", breaks the crash-durability contract: errors from
ipcp/internal/summary and ipcp/internal/wal must be handled or
explicitly suppressed with an audit note.`,
	Run: runCodecErr,
}

func runCodecErr(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					reportDiscarded(pass, call, "call discards its error result")
				}
			case *ast.DeferStmt:
				reportDiscarded(pass, n.Call, "deferred call discards its error result")
			case *ast.GoStmt:
				reportDiscarded(pass, n.Call, "goroutine call discards its error result")
			case *ast.AssignStmt:
				checkBlankErr(pass, n)
			}
			return true
		})
	}
	return nil
}

// contractErrFunc resolves a call to a durability-contract function
// whose results include an error; it returns the function and the
// index of the error result, or (nil, -1).
func contractErrFunc(info *types.Info, call *ast.CallExpr) (*types.Func, int) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return nil, -1
	}
	match := false
	for _, p := range errPkgs {
		if pkgMatches(fn.Pkg(), p) {
			match = true
			break
		}
	}
	if !match {
		return nil, -1
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, -1
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return fn, i
		}
	}
	return nil, -1
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// reportDiscarded flags a statement-position contract call.
func reportDiscarded(pass *Pass, call *ast.CallExpr, how string) {
	fn, _ := contractErrFunc(pass.Info, call)
	if fn == nil {
		return
	}
	pass.Reportf(call.Pos(),
		"%s: %s.%s's error is part of the durability ack contract — handle it or suppress with an audit note", how, fn.Pkg().Name(), fn.Name())
}

// checkBlankErr flags `_ = store.Put(...)` and `v, _ := Decode(...)`
// where the blank identifier lands on the contract error.
func checkBlankErr(pass *Pass, assign *ast.AssignStmt) {
	// Multi-value destructuring of a single call.
	if len(assign.Rhs) == 1 && len(assign.Lhs) > 1 {
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		fn, errIdx := contractErrFunc(pass.Info, call)
		if fn == nil || errIdx >= len(assign.Lhs) {
			return
		}
		if isBlank(assign.Lhs[errIdx]) {
			pass.Reportf(assign.Pos(),
				"error from %s.%s assigned to _ — it is part of the durability ack contract; handle it or suppress with an audit note", fn.Pkg().Name(), fn.Name())
		}
		return
	}
	// One-to-one assignments: `_ = j.Close()`.
	for i, rhs := range assign.Rhs {
		if i >= len(assign.Lhs) || !isBlank(assign.Lhs[i]) {
			continue
		}
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		if fn, _ := contractErrFunc(pass.Info, call); fn != nil {
			pass.Reportf(assign.Pos(),
				"error from %s.%s assigned to _ — it is part of the durability ack contract; handle it or suppress with an audit note", fn.Pkg().Name(), fn.Name())
		}
	}
}

// isBlank reports whether e is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}
