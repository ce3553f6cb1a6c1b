package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// obsPkgSuffix identifies the observability package whose Tracer interface
// the guard contract protects. Matching by suffix keeps the analyzer usable
// from analysistest fixtures, which reproduce the package under its real
// import path inside a testdata tree.
const obsPkgSuffix = "internal/obs"

// TracerGuard enforces the zero-cost-when-off tracing contract: a direct
// obs.Tracer.Event call must be dominated by a nil check of its receiver —
// either an enclosing `if tr != nil { … }` (nil-check conjuncts count, as
// does the else branch of `if tr == nil`), or an earlier
// `if tr == nil { return }` in an enclosing block — or go through the guard
// helpers (package obs itself, and wrappers like simnet's Context.Trace,
// which carry the guard internally and are exempt as the obs package's
// peers once they pass the same check). An unguarded call turns the
// disabled path from one branch into an interface call on a nil value — a
// panic at worst, a broken zero-cost contract at best.
var TracerGuard = &Analyzer{
	Name: "tracerguard",
	Run:  runTracerGuard,
}

func runTracerGuard(pass *Pass) error {
	// The obs package is the home of the guard helpers (Tee, WithLayer,
	// layer/tee forwarding): inside it, calling through the interface is
	// the point.
	if p := pass.Pkg.Path(); p == obsPkgSuffix || strings.HasSuffix(p, "/"+obsPkgSuffix) {
		return nil
	}
	for _, f := range pass.Files {
		walkPath(f, func(n ast.Node, path []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return
			}
			if !isTracerMethod(pass, sel) {
				return
			}
			recv, ok := chainString(sel.X)
			if !ok {
				pass.Reportf(call.Pos(), "obs.Tracer call on a computed receiver cannot be proven nil-guarded; bind the tracer to a variable and guard it, or annotate //detlint:tracerguard ok(reason)")
				return
			}
			if !nilGuarded(pass, recv, call, path) {
				pass.Reportf(call.Pos(), "obs.Tracer call on %s is not dominated by a nil check; wrap it in `if %s != nil { … }` to keep tracing zero-cost when off", recv, recv)
			}
		})
	}
	return nil
}

// isTracerMethod reports whether sel resolves to a method of the
// obs.Tracer interface.
func isTracerMethod(pass *Pass, sel *ast.SelectorExpr) bool {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	if p != obsPkgSuffix && !strings.HasSuffix(p, "/"+obsPkgSuffix) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named, ok := types.Unalias(sig.Recv().Type()).(*types.Named)
	if !ok || named.Obj().Name() != "Tracer" {
		return false
	}
	_, isIface := named.Underlying().(*types.Interface)
	return isIface
}

// nilGuarded reports whether the call at the end of path is dominated by a
// nil check of recv (by chain-string comparison — aliasing is out of scope
// for a syntactic checker).
func nilGuarded(pass *Pass, recv string, call *ast.CallExpr, path []ast.Node) bool {
	for i := len(path) - 1; i >= 0; i-- {
		switch n := path[i].(type) {
		case *ast.IfStmt:
			inBody := i+1 < len(path) && path[i+1] == n.Body
			inElse := i+1 < len(path) && n.Else != nil && path[i+1] == n.Else
			if inBody && condHasNotNil(pass, n.Cond, recv) {
				return true
			}
			if inElse && condHasNilEq(pass, n.Cond, recv) {
				return true
			}
		case *ast.BlockStmt:
			// An earlier `if recv == nil { return }` in this block
			// dominates everything after it.
			stmtIdx := -1
			for j, s := range n.List {
				if i+1 < len(path) && s == path[i+1] {
					stmtIdx = j
					break
				}
			}
			for j := 0; j < stmtIdx; j++ {
				ifs, ok := n.List[j].(*ast.IfStmt)
				if !ok || ifs.Init != nil || ifs.Else != nil {
					continue
				}
				if condHasNilEq(pass, ifs.Cond, recv) && terminates(ifs.Body) {
					return true
				}
			}
		case *ast.FuncLit, *ast.FuncDecl:
			// Guards outside the enclosing function do not dominate calls
			// inside a literal that may run later.
			return false
		}
	}
	return false
}

// condHasNotNil reports whether cond contains `recv != nil` as a
// top-level && conjunct.
func condHasNotNil(pass *Pass, cond ast.Expr, recv string) bool {
	switch c := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		if c.Op == token.LAND {
			return condHasNotNil(pass, c.X, recv) || condHasNotNil(pass, c.Y, recv)
		}
		return c.Op == token.NEQ && nilCompare(pass, c, recv)
	}
	return false
}

// condHasNilEq reports whether cond contains `recv == nil` as a top-level
// || disjunct: when `if recv == nil || other { return }` does not take the
// branch, recv is known non-nil.
func condHasNilEq(pass *Pass, cond ast.Expr, recv string) bool {
	c, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	if c.Op == token.LOR {
		return condHasNilEq(pass, c.X, recv) || condHasNilEq(pass, c.Y, recv)
	}
	return c.Op == token.EQL && nilCompare(pass, c, recv)
}

// nilCompare reports whether one side of c is nil and the other renders to
// the receiver chain.
func nilCompare(pass *Pass, c *ast.BinaryExpr, recv string) bool {
	for _, pair := range [][2]ast.Expr{{c.X, c.Y}, {c.Y, c.X}} {
		if !isNilIdent(pass.TypesInfo, pair[1]) {
			continue
		}
		if s, ok := chainString(pair[0]); ok && s == recv {
			return true
		}
	}
	return false
}

// terminates reports whether a block's last statement unconditionally
// leaves the enclosing scope (return, branch, or panic).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}
