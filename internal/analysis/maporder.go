package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags `for … range` over a map: Go randomizes map iteration
// order, so any map-range feeding ordered output (slices, wire messages,
// endorsement subsets) is a nondeterminism bug. Both map-order bugs PR 5's
// golden corpus flushed out — core.buildValue picking f+1 endorsements from
// the proposals map and hotstuff assembling a TC from the timeout-share
// map — are exactly this shape and are must-flag fixtures for this
// analyzer.
//
// Two shapes are recognized as safe and not flagged:
//
//   - collect-and-sort: the body only appends keys/values to slices and
//     every collected slice is passed to a sort or slices call later in the
//     same function (the canonical sorted-iteration idiom);
//   - order-insensitive bodies: writes into other maps, delete, integer
//     counters and other commutative integer accumulation, constant flag
//     sets, and if/continue combinations thereof. Float accumulation is
//     NOT safe (float addition is not associative) and stays flagged.
//
// Anything else needs either a fix or a maporder waiver on the range line.
var MapOrder = &Analyzer{
	Name: "maporder",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) error {
	for _, f := range pass.Files {
		walkPath(f, func(n ast.Node, path []ast.Node) {
			rs, ok := n.(*ast.RangeStmt)
			if !ok || !isMapType(pass.TypesInfo.TypeOf(rs.X)) {
				return
			}
			// `for range m` binds nothing: every iteration is identical, so
			// order cannot matter.
			if rs.Key == nil && rs.Value == nil {
				return
			}
			cl := classifyMapRangeBody(pass, rs)
			switch {
			case !cl.ok:
				pass.Reportf(rs.For, "range over map %s: iteration order is nondeterministic; collect and sort the keys, or annotate //detlint:maporder ok(reason)", types.ExprString(rs.X))
			case len(cl.collected) > 0:
				if cl.selectsOnCollected {
					pass.Reportf(rs.For, "range over map %s selects elements depending on what was already collected: the chosen subset follows map order even if sorted afterwards", types.ExprString(rs.X))
					return
				}
				fn := enclosingFuncBody(path)
				for _, target := range cl.collected {
					if !sortedAfter(pass, fn, rs.End(), target) {
						pass.Reportf(rs.For, "range over map %s collects into %s, which is never sorted in this function; sort it before use, or annotate //detlint:maporder ok(reason)", types.ExprString(rs.X), target)
						return
					}
				}
			}
		})
	}
	return nil
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// bodyClass is the result of classifying a map-range body. Collected
// targets are identified by their rendered chain ("keys", "res.Forks") —
// a syntactic identity, which is what the sorted-after check needs.
type bodyClass struct {
	ok                 bool     // every statement is a recognized safe shape
	collected          []string // slices the body appends to
	selectsOnCollected bool     // an if-condition reads a collected slice
}

// classifyMapRangeBody decides whether a map-range body is order-safe on
// its own (commutative accumulation) or a collect loop whose targets must
// be sorted afterwards.
func classifyMapRangeBody(pass *Pass, rs *ast.RangeStmt) bodyClass {
	cl := bodyClass{ok: true}
	var conds []ast.Expr
	var walkStmts func(stmts []ast.Stmt)
	walkStmts = func(stmts []ast.Stmt) {
		for _, s := range stmts {
			if !cl.ok {
				return
			}
			switch s := s.(type) {
			case *ast.AssignStmt:
				if !classifyAssign(pass, s, &cl) {
					cl.ok = false
				}
			case *ast.IncDecStmt:
				if !isIntegerExpr(pass, s.X) {
					cl.ok = false
				}
			case *ast.ExprStmt:
				if !isDeleteCall(pass, s.X) {
					cl.ok = false
				}
			case *ast.IfStmt:
				if s.Init != nil {
					cl.ok = false
					return
				}
				// Running extremum — `if c > best { best = c }` — keeps only
				// the max/min of the values, which every iteration order
				// agrees on. (Argmax variants that also record the key are
				// not this shape and stay flagged.)
				if isRunningExtremum(s) {
					continue
				}
				conds = append(conds, s.Cond)
				walkStmts(s.Body.List)
				switch el := s.Else.(type) {
				case nil:
				case *ast.BlockStmt:
					walkStmts(el.List)
				case *ast.IfStmt:
					walkStmts([]ast.Stmt{el})
				default:
					cl.ok = false
				}
			case *ast.BlockStmt:
				walkStmts(s.List)
			case *ast.BranchStmt:
				if s.Tok != token.CONTINUE {
					cl.ok = false
				}
			default:
				cl.ok = false
			}
		}
	}
	walkStmts(rs.Body.List)
	if !cl.ok {
		return cl
	}
	// A condition that reads a collected slice (e.g. `len(picked) < f+1`)
	// makes the *selection* order-dependent: sorting afterwards cannot fix
	// which elements were taken.
	for _, cond := range conds {
		ast.Inspect(cond, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			if s, ok := chainString(e); ok {
				for _, t := range cl.collected {
					if s == t {
						cl.selectsOnCollected = true
					}
				}
			}
			return true
		})
	}
	return cl
}

// isRunningExtremum matches `if a OP b { b = a }` (or the mirrored forms)
// where OP is an ordering comparison: the body keeps the extremum of the
// compared values and nothing else.
func isRunningExtremum(s *ast.IfStmt) bool {
	if s.Else != nil || len(s.Body.List) != 1 {
		return false
	}
	cond, ok := ast.Unparen(s.Cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch cond.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
	default:
		return false
	}
	as, ok := s.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	lhs, ok1 := chainString(as.Lhs[0])
	rhs, ok2 := chainString(as.Rhs[0])
	cx, ok3 := chainString(cond.X)
	cy, ok4 := chainString(cond.Y)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return false
	}
	return (lhs == cx && rhs == cy) || (lhs == cy && rhs == cx)
}

// classifyAssign accepts the safe assignment shapes inside a map-range
// body; it records append targets in cl.collected.
func classifyAssign(pass *Pass, s *ast.AssignStmt, cl *bodyClass) bool {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	lhs, rhs := s.Lhs[0], s.Rhs[0]
	switch s.Tok {
	case token.ASSIGN, token.DEFINE:
		// s = append(s, …): a collect statement.
		if call, ok := rhs.(*ast.CallExpr); ok && isBuiltin(pass, call.Fun, "append") && len(call.Args) > 0 {
			target, ok := chainString(lhs)
			if !ok {
				return false
			}
			first, ok := chainString(call.Args[0])
			if !ok || first != target {
				return false
			}
			for _, t := range cl.collected {
				if t == target {
					return true
				}
			}
			cl.collected = append(cl.collected, target)
			return true
		}
		// m2[k] = v: keyed writes land on distinct keys, so order between
		// them cannot matter.
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMapType(pass.TypesInfo.TypeOf(ix.X)) {
			return true
		}
		// x = <constant>: idempotent flag set.
		if tv, ok := pass.TypesInfo.Types[rhs]; ok && tv.Value != nil {
			return true
		}
		return false
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN, token.MUL_ASSIGN:
		// Commutative, associative accumulation — for integers only: float
		// addition depends on summation order.
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMapType(pass.TypesInfo.TypeOf(ix.X)) {
			return true
		}
		return isIntegerExpr(pass, lhs)
	}
	return false
}

func isIntegerExpr(pass *Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isDeleteCall(pass *Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	return ok && isBuiltin(pass, call.Fun, "delete")
}

func isBuiltin(pass *Pass, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == name
}

// enclosingFuncBody returns the body of the innermost function declaration
// or literal on the ancestor path (nil at file scope).
func enclosingFuncBody(path []ast.Node) *ast.BlockStmt {
	for i := len(path) - 1; i >= 0; i-- {
		switch fn := path[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// sortedAfter reports whether target (a rendered chain) appears as part of
// an argument to a sort or slices call located after pos within fn.
func sortedAfter(pass *Pass, fn *ast.BlockStmt, pos token.Pos, target string) bool {
	if fn == nil {
		return false
	}
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || obj.Pkg() == nil {
			return true
		}
		if p := obj.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if e, ok := an.(ast.Expr); ok {
					if s, ok := chainString(e); ok && s == target {
						found = true
					}
				}
				return !found
			})
		}
		return !found
	})
	return found
}
