// Package errwrap defines an interprocedural analyzer enforcing the error
// classification contract: every error an exported function of a contract
// package can return must be classifiable by the caller with errors.Is —
// either one of the package's declared sentinels (bare or wrapped with %w),
// or a cause obtained from a callee and passed through with its chain
// intact. Freshly minted, chain-less errors (fmt.Errorf without %w, inline
// errors.New in a return path) are reported: callers cannot distinguish
// them from one another, so they cannot be handled programmatically.
//
// A package is under contract when it declares at least one package-level
// sentinel (`var ErrX = errors.New(...)`) or carries the
// `//atyplint:errcontract` directive in its package doc. Main packages are
// never under contract: a command's errors terminate in its own fatal path.
//
// Classification is interprocedural. A Classifiable object fact is exported
// for every function (contract package or not) whose error results all
// classify, so an exported function returning `helper()` — or
// `otherpkg.Helper()` three packages away — is judged by what that helper
// actually returns, not by its call site. Functions of packages outside the
// analysis scope (the standard library, export-data-only dependencies) get
// the benefit of the doubt: their errors are treated as well-formed causes.
package errwrap

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/cpskit/atypical/internal/analysis/callgraph"
	"github.com/cpskit/atypical/internal/analysis/framework"
)

// Directive opts a package into the contract even when it declares no
// sentinel of its own (its exported errors must then all be pass-through
// wraps of callee causes).
const Directive = "atyplint:errcontract"

// Classifiable is the object fact exported for functions whose every
// returned error is classifiable: nil, a declared sentinel, a %w-wrap, or a
// cause passed through from a classifiable (or out-of-scope) callee.
type Classifiable struct{}

func (*Classifiable) AFact() {}

func (f *Classifiable) String() string { return "errwrap:ok" }

// Sentinels is the package fact listing the sentinel error variables a
// package declares, in source order of discovery (sorted for determinism).
type Sentinels struct {
	Names []string
}

func (*Sentinels) AFact() {}

func (f *Sentinels) String() string { return "sentinels(" + strings.Join(f.Names, ",") + ")" }

// Analyzer enforces the error classification contract.
var Analyzer = &framework.Analyzer{
	Name: "errwrap",
	Doc: "errors returned by exported functions of contract packages must be " +
		"classifiable: a declared sentinel, a %w wrap, or a pass-through cause",
	FactTypes: []framework.Fact{(*Classifiable)(nil), (*Sentinels)(nil)},
	Run:       run,
}

// verdict is the tri-state result of classifying one function.
type verdict int

const (
	unknown verdict = iota
	ok
	bad
)

// blame records why a function failed classification: the first offending
// site (always in the current package) and its description.
type blame struct {
	pos  token.Pos
	desc string
}

type checker struct {
	pass     *framework.Pass
	graph    *callgraph.Graph
	verdicts map[*types.Func]verdict
	blames   map[*types.Func]blame
	// varState guards local-variable classification against assignment
	// cycles (err = wrap(err)).
	varState  map[*types.Var]verdict
	varBlames map[*types.Var]blame
}

func run(pass *framework.Pass) (any, error) {
	c := &checker{
		pass:      pass,
		graph:     callgraph.Build(pass),
		verdicts:  map[*types.Func]verdict{},
		blames:    map[*types.Func]blame{},
		varState:  map[*types.Var]verdict{},
		varBlames: map[*types.Var]blame{},
	}

	sentinels := declaredSentinels(pass)
	if len(sentinels) > 0 {
		pass.ExportPackageFact(&Sentinels{Names: sentinels})
	}

	// Classify every declared function, export facts for the clean ones.
	c.graph.ForEach(func(n *callgraph.Node) {
		c.classify(n.Obj)
	})
	isMain := pass.Pkg.Name() == "main"
	c.graph.ForEach(func(n *callgraph.Node) {
		if c.verdicts[n.Obj] == ok && !isMain {
			pass.ExportObjectFact(n.Obj, &Classifiable{})
		}
	})

	if isMain || !underContract(pass, sentinels) {
		return nil, nil
	}

	// Report: one diagnostic per offending site exposed through an exported
	// function, at the site (which is always in this package).
	type finding struct {
		pos      token.Pos
		desc     string
		exported string
	}
	byPos := map[token.Pos]finding{}
	c.graph.ForEach(func(n *callgraph.Node) {
		if !n.Obj.Exported() || c.verdicts[n.Obj] != bad {
			return
		}
		b := c.blames[n.Obj]
		if prev, dup := byPos[b.pos]; dup && prev.exported <= n.Obj.Name() {
			return
		}
		byPos[b.pos] = finding{pos: b.pos, desc: b.desc, exported: callgraph.ShortName(n.Obj)}
	})
	all := make([]finding, 0, len(byPos))
	for _, f := range byPos {
		all = append(all, f)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].pos < all[j].pos })
	hint := "wrap the cause with %w or return a declared sentinel"
	if len(sentinels) > 0 {
		hint = "wrap the cause or one of " + strings.Join(sentinels, ", ") + " with %w"
	}
	for _, f := range all {
		c.pass.Reportf(f.pos,
			"unclassifiable error reaches exported %s: %s; %s", f.exported, f.desc, hint)
	}
	return nil, nil
}

// classify computes (and memoizes) the verdict for fn, a function declared
// in the current package. Recursion through in-progress functions resolves
// optimistically: a cycle is classifiable iff some statement on it is not.
func (c *checker) classify(fn *types.Func) verdict {
	if v, seen := c.verdicts[fn]; seen {
		if v == unknown {
			return ok // in progress: optimistic, the cycle's minting sites still convict
		}
		return v
	}
	c.verdicts[fn] = unknown
	node := c.graph.Lookup(fn)
	v := ok
	if node != nil && node.Decl != nil && node.Decl.Body != nil {
		if b, failed := c.checkBody(node.Decl); failed {
			v = bad
			c.blames[fn] = b
		}
	}
	c.verdicts[fn] = v
	return v
}

// checkBody classifies every error-typed expression returned by the
// function declaration itself (closure bodies have their own signatures and
// are skipped: an error escaping through a func value is out of scope).
func (c *checker) checkBody(fd *ast.FuncDecl) (blame, bool) {
	var b blame
	failed := false
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if failed {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if !c.isErrorExpr(res) {
					continue
				}
				if rb, isBad := c.classifyExpr(res); isBad {
					b, failed = rb, true
					return false
				}
			}
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
	if failed {
		return b, true
	}
	// Named error results returned bare: classify the result variable.
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			for _, name := range field.Names {
				obj, _ := c.pass.TypesInfo.Defs[name].(*types.Var)
				if obj == nil || !isErrorType(obj.Type()) {
					continue
				}
				if rb, isBad := c.classifyVar(obj, fd.Body); isBad {
					return rb, true
				}
			}
		}
	}
	return blame{}, false
}

func (c *checker) isErrorExpr(e ast.Expr) bool {
	tv, has := c.pass.TypesInfo.Types[e]
	return has && tv.Type != nil && isErrorType(tv.Type)
}

// classifyExpr decides whether one returned error expression is
// classifiable; on failure it returns the blame site.
func (c *checker) classifyExpr(e ast.Expr) (blame, bool) {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if e.Name == "nil" {
			return blame{}, false
		}
		switch obj := c.pass.TypesInfo.Uses[e].(type) {
		case *types.Var:
			if obj.Parent() != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				return blame{}, false // package-level sentinel (ours or a dependency's)
			}
			return c.classifyVar(obj, nil)
		}
		return blame{}, false
	case *ast.SelectorExpr:
		// pkg.ErrX or x.field; package-level error vars of any package are
		// sentinels, everything else gets the benefit of the doubt.
		return blame{}, false
	case *ast.CallExpr:
		return c.classifyCall(e)
	}
	return blame{}, false
}

// classifyCall decides whether a call in a return path yields a
// classifiable error.
func (c *checker) classifyCall(call *ast.CallExpr) (blame, bool) {
	callee := calleeFunc(c.pass, call)
	if callee == nil {
		return blame{}, false // func value / interface-typed: cannot track
	}
	pkg := callee.Pkg()
	if pkg != nil && pkg.Path() == "fmt" && callee.Name() == "Errorf" {
		if errorfWraps(call) {
			return blame{}, false
		}
		return blame{pos: call.Pos(), desc: "fmt.Errorf without %w mints a chain-less error"}, true
	}
	if pkg != nil && pkg.Path() == "errors" && callee.Name() == "New" {
		return blame{pos: call.Pos(),
			desc: "inline errors.New mints a chain-less error (declare a sentinel instead)"}, true
	}
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil &&
		types.IsInterface(sig.Recv().Type()) {
		return blame{}, false // interface method: implementations judged at their own sites
	}
	if pkg == nil {
		return blame{}, false
	}
	if pkg == c.pass.Pkg {
		if c.classify(callee) == bad {
			hb := c.blames[callee]
			// The helper's own blame is in this package too; surface it.
			return hb, true
		}
		return blame{}, false
	}
	var fact Classifiable
	if c.pass.ImportObjectFact(callee, &fact) {
		return blame{}, false
	}
	if !c.pass.AnalyzedPackage(pkg.Path()) {
		return blame{}, false // out of analysis scope: trust it
	}
	return blame{pos: call.Pos(), desc: "error from " + callgraph.ShortName(callee) +
		", which mints unclassifiable errors"}, true
}

// classifyVar classifies a local (or named-result) error variable by every
// assignment to it visible in the enclosing function. scope, when non-nil,
// limits the walk; otherwise the declaring function body is found via the
// graph. Flow-insensitive: any bad assignment convicts.
func (c *checker) classifyVar(v *types.Var, scope *ast.BlockStmt) (blame, bool) {
	if state, seen := c.varState[v]; seen {
		if state == bad {
			return c.varBlame(v), true
		}
		return blame{}, false // done, or in progress (optimistic)
	}
	c.varState[v] = unknown
	body := scope
	if body == nil {
		body = c.enclosingBody(v.Pos())
	}
	if body == nil {
		c.varState[v] = ok
		return blame{}, false
	}
	var b blame
	failed := false
	ast.Inspect(body, func(n ast.Node) bool {
		if failed {
			return false
		}
		assign, okA := n.(*ast.AssignStmt)
		if !okA {
			return true
		}
		for i, lhs := range assign.Lhs {
			id, okI := ast.Unparen(lhs).(*ast.Ident)
			if !okI {
				continue
			}
			obj := c.pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = c.pass.TypesInfo.Uses[id]
			}
			if obj != v {
				continue
			}
			var rhs ast.Expr
			if len(assign.Rhs) == len(assign.Lhs) {
				rhs = assign.Rhs[i]
			} else if len(assign.Rhs) == 1 {
				rhs = assign.Rhs[0] // multi-value call: classify the call
			}
			if rhs == nil {
				continue
			}
			if rb, isBad := c.classifyExpr(rhs); isBad {
				b, failed = rb, true
				return false
			}
		}
		return true
	})
	if failed {
		c.varState[v] = bad
		c.blamesVar(v, b)
		return b, true
	}
	c.varState[v] = ok
	return blame{}, false
}

func (c *checker) blamesVar(v *types.Var, b blame) { c.varBlames[v] = b }
func (c *checker) varBlame(v *types.Var) blame     { return c.varBlames[v] }

// enclosingBody finds the body of the declared function containing pos.
func (c *checker) enclosingBody(pos token.Pos) *ast.BlockStmt {
	var found *ast.BlockStmt
	c.graph.ForEach(func(n *callgraph.Node) {
		if found != nil || n.Decl == nil || n.Decl.Body == nil {
			return
		}
		if n.Decl.Pos() <= pos && pos <= n.Decl.End() {
			found = n.Decl.Body
		}
	})
	return found
}

// calleeFunc resolves the static callee of a call, or nil.
func calleeFunc(pass *framework.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, okS := pass.TypesInfo.Selections[fun]; okS {
			if fn, okF := sel.Obj().(*types.Func); okF {
				return fn
			}
			return nil
		}
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// errorfWraps reports whether a fmt.Errorf call's format literal contains a
// %w verb. Non-literal formats get the benefit of the doubt.
func errorfWraps(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	lit, okL := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !okL || lit.Kind != token.STRING {
		return true
	}
	return strings.Contains(lit.Value, "%w")
}

// declaredSentinels lists package-level error variables named Err*.
func declaredSentinels(pass *framework.Pass) []string {
	var names []string
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		if !strings.HasPrefix(name, "Err") {
			continue
		}
		v, okV := scope.Lookup(name).(*types.Var)
		if okV && isErrorType(v.Type()) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// underContract reports whether the current package must satisfy the
// classification contract: it declares sentinels or carries the directive.
func underContract(pass *framework.Pass, sentinels []string) bool {
	if len(sentinels) > 0 {
		return true
	}
	for _, f := range pass.Files {
		if f.Doc == nil {
			continue
		}
		for _, line := range f.Doc.List {
			if strings.Contains(line.Text, Directive) {
				return true
			}
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
