// Package spanend defines an analyzer enforcing the span lifecycle around
// internal/obs: a span opened with obs.Start (or StartAt) must be closed
// (End or EndAt). A span that is never ended is worse than no span — it is
// silently absent from the trace ring (only End exports), so the trace looks
// like the work never happened, and any child parentage hangs off a span
// that will never publish.
//
// The rule, per function: every obs.Start call at the function's own level
// must either
//
//   - assign its span to an identifier on which .End() is reachable somewhere
//     in the function (a direct call, a defer, or inside a nested function
//     literal — the common `defer func() { sp.End() }()` shape counts), or
//   - be returned to the caller (directly as `return obs.Start(...)` or by
//     returning the span identifier), which transfers the obligation.
//
// Discarding the span — a bare `obs.Start(ctx, ...)` statement or a blank
// identifier — is always reported: a discarded span cannot be ended.
// Start calls inside nested function literals are that literal's own
// responsibility. A deliberate exception needs a written justification via
// "//atyplint:ignore spanend reason".
package spanend

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/cpskit/atypical/internal/analysis/framework"
)

// Analyzer flags obs.Start spans that are neither ended nor returned.
var Analyzer = &framework.Analyzer{
	Name: "spanend",
	Doc: "flag obs.Start calls whose span is neither ended nor returned " +
		"(an unended span never exports, so the trace silently loses it)",
	Run: run,
}

func run(pass *framework.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.FuncDecl:
				if node.Body != nil {
					checkBody(pass, node.Body)
				}
			case *ast.FuncLit:
				checkBody(pass, node.Body)
			}
			return true
		})
	}
	return nil, nil
}

// checkBody enforces the span lifecycle for one function body. Start calls
// count only at this function's own level — a Start inside a nested func
// literal is that literal's responsibility (run visits it separately). End
// calls and returns count anywhere in the body, so deferred closures and
// early returns satisfy the rule.
func checkBody(pass *framework.Pass, body *ast.BlockStmt) {
	type started struct {
		call *ast.CallExpr
		name string // span identifier; "" when the result is discarded
	}
	var starts []started

	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			return false
		}
		stmt, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		switch st := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok && isObsStart(pass, call) {
				starts = append(starts, started{call: call})
			}
		case *ast.AssignStmt:
			// Start returns two values, so it can only appear as the sole RHS.
			if len(st.Rhs) != 1 || len(st.Lhs) != 2 {
				return true
			}
			call, ok := st.Rhs[0].(*ast.CallExpr)
			if !ok || !isObsStart(pass, call) {
				return true
			}
			if id, ok := st.Lhs[1].(*ast.Ident); ok && id.Name != "_" {
				starts = append(starts, started{call: call, name: id.Name})
			} else {
				starts = append(starts, started{call: call})
			}
		case *ast.ReturnStmt:
			// `return obs.Start(...)` hands the span to the caller.
			if len(st.Results) == 1 {
				if call, ok := st.Results[0].(*ast.CallExpr); ok && isObsStart(pass, call) {
					return true
				}
			}
		}
		return true
	})
	if len(starts) == 0 {
		return
	}

	ended := map[string]bool{}
	returned := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			if sel, ok := node.Fun.(*ast.SelectorExpr); ok && isSpanEnd(pass, sel) {
				if id, ok := sel.X.(*ast.Ident); ok {
					ended[id.Name] = true
				}
			}
		case *ast.ReturnStmt:
			for _, res := range node.Results {
				if id, ok := res.(*ast.Ident); ok {
					returned[id.Name] = true
				}
			}
		}
		return true
	})

	for _, s := range starts {
		switch {
		case s.name == "":
			pass.Reportf(s.call.Pos(),
				"span returned by obs.Start is discarded; an unended span never "+
					"exports — assign it and defer its End()")
		case !ended[s.name] && !returned[s.name]:
			pass.Reportf(s.call.Pos(),
				"span %s is neither ended nor returned in this function; an "+
					"unended span never exports — add defer %s.End()",
				s.name, s.name)
		}
	}
}

// isObsStart reports whether call invokes internal/obs.Start or StartAt
// (matched by package-path suffix so fixtures with a vendored stub qualify).
func isObsStart(pass *framework.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || (fn.Name() != "Start" && fn.Name() != "StartAt") {
		return false
	}
	return isObsPath(fn.Pkg().Path())
}

// isSpanEnd reports whether sel selects the End or EndAt method of the obs
// span type.
func isSpanEnd(pass *framework.Pass, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "End" && sel.Sel.Name != "EndAt" {
		return false
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return isObsPath(fn.Pkg().Path())
}

func isObsPath(path string) bool {
	return path == "obs" || strings.HasSuffix(path, "/obs")
}
