package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPath enforces the allocation discipline on functions annotated with a
// //detlint:hotpath doc-comment directive — the static half of the
// AllocsPerRun==0 pins on the kernel's event heap, the pipe fluid model,
// the transport's transit path and the fleet tick. Inside an annotated
// function it flags:
//
//   - function literals (closures capture and usually escape);
//   - calls into package fmt (formatting allocates, even for discarded
//     output);
//   - map and slice composite literals (always heap-backed once they
//     escape; array and struct literals stay legal);
//   - the new and make builtins;
//   - non-constant string concatenation (+ / += on strings allocates);
//   - boxing a non-pointer value into an interface (pointer-shaped values
//     — pointers, maps, chans, funcs — fit an interface word without
//     allocating and stay legal).
//
// Amortized slow paths (scratch growth, cold panics) carry a hotpath waiver
// on the offending line.
var HotPath = &Analyzer{
	Name: "hotpath",
	Run:  runHotPath,
}

func runHotPath(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, HotPathDirective) {
				continue
			}
			checkHotPathBody(pass, fd)
		}
	}
	return nil
}

func checkHotPathBody(pass *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure in hotpath function %s: function literals capture and allocate", name)
			return false // the literal's body is not on the hot path itself
		case *ast.CallExpr:
			checkHotPathCall(pass, name, n)
		case *ast.CompositeLit:
			t := pass.TypesInfo.TypeOf(n)
			if t == nil {
				break
			}
			switch t.Underlying().(type) {
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal in hotpath function %s allocates", name)
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal in hotpath function %s allocates", name)
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(pass, n.X) && !isConstExpr(pass, n) {
				pass.Reportf(n.Pos(), "string concatenation in hotpath function %s allocates", name)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(pass, n.Lhs[0]) {
				pass.Reportf(n.Pos(), "string concatenation in hotpath function %s allocates", name)
			}
			checkHotPathAssign(pass, name, n)
		case *ast.ValueSpec:
			if n.Type != nil {
				dst := pass.TypesInfo.TypeOf(n.Type)
				for _, v := range n.Values {
					checkBoxing(pass, name, v, dst)
				}
			}
		case *ast.ReturnStmt:
			checkHotPathReturn(pass, name, fd, n)
		}
		return true
	})
}

func checkHotPathCall(pass *Pass, name string, call *ast.CallExpr) {
	// new/make builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin); ok {
			switch b.Name() {
			case "new", "make":
				pass.Reportf(call.Pos(), "%s in hotpath function %s allocates", b.Name(), name)
			}
			return
		}
	}
	// Calls into package fmt.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			pass.Reportf(call.Pos(), "fmt.%s in hotpath function %s allocates", fn.Name(), name)
			return
		}
	}
	// Conversion to an interface type.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			checkBoxing(pass, name, call.Args[0], tv.Type)
		}
		return
	}
	// Arguments boxed into interface parameters.
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var dst types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no boxing
			}
			dst = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			dst = params.At(i).Type()
		}
		checkBoxing(pass, name, arg, dst)
	}
}

func checkHotPathAssign(pass *Pass, name string, s *ast.AssignStmt) {
	if s.Tok != token.ASSIGN || len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, lhs := range s.Lhs {
		checkBoxing(pass, name, s.Rhs[i], pass.TypesInfo.TypeOf(lhs))
	}
}

func checkHotPathReturn(pass *Pass, name string, fd *ast.FuncDecl, ret *ast.ReturnStmt) {
	results := fd.Type.Results
	if results == nil || len(ret.Results) == 0 {
		return
	}
	var dsts []types.Type
	for _, field := range results.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			dsts = append(dsts, t)
		}
	}
	if len(ret.Results) != len(dsts) {
		return // multi-value call return; boxing happens at the callee
	}
	for i, r := range ret.Results {
		checkBoxing(pass, name, r, dsts[i])
	}
}

// checkBoxing flags expr when assigning it to dst converts a non-pointer
// concrete value into an interface, which heap-allocates the value.
func checkBoxing(pass *Pass, name string, expr ast.Expr, dst types.Type) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	src := pass.TypesInfo.TypeOf(expr)
	if src == nil || types.IsInterface(src) {
		return
	}
	if isNilIdent(pass.TypesInfo, expr) {
		return
	}
	switch src.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return // pointer-shaped: fits the interface word, no allocation
	case *types.Basic:
		if b := src.Underlying().(*types.Basic); b.Kind() == types.UnsafePointer || b.Kind() == types.UntypedNil {
			return
		}
	}
	pass.Reportf(expr.Pos(), "%s value boxed into interface %s in hotpath function %s allocates", src.String(), dst.String(), name)
}

func isStringExpr(pass *Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isConstExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}
