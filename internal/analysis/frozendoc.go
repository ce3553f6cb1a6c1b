package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// frozenTypes are the document types and a vote's view, as types.Type.String
// spells them.
var frozenTypes = map[string]bool{
	"partialtor/internal/vote.Document":  true,
	"partialtor/internal/vote.Consensus": true,
	"partialtor/internal/vote.View":      true,
}

// FrozenDoc keeps vote documents immutable outside internal/vote: a
// document's seal fixes its size and digest, and a consensus is shared, read
// only, by every run on its inputs entry. A vote's View is frozen with it:
// its listings are what the seal rendered, and a copy of a view still shares
// them. It flags an assignment or ++/-- whose target reaches a field of a
// document or a view, however deep the index and selector expressions go
// (c.Relays[0].Flags, d.Relays.Listings[0].Measured, v.Listings[0].Flags),
// and a write of a whole document through its pointer (*c =
// vote.Consensus{}). Only a local the same function got from
// vote.NewDocument may still be written (the EntryPadding idiom).
var FrozenDoc = &Analyzer{
	Name: "frozendoc",
	Run:  runFrozenDoc,
}

func runFrozenDoc(pass *Pass) error {
	if pass.Pkg.Path() == "partialtor/internal/vote" {
		return nil
	}
	info := pass.TypesInfo
	fresh := map[types.Object]bool{} // locals last assigned from vote.NewDocument
	isFresh := func(x ast.Expr) bool {
		root, _ := x.(*ast.Ident)
		return root != nil && fresh[info.ObjectOf(root)]
	}
	check := func(target ast.Expr) {
		if star, _ := ast.Unparen(target).(*ast.StarExpr); star != nil {
			if ptr, _ := info.TypeOf(star.X).(*types.Pointer); ptr != nil && frozenTypes[ptr.Elem().String()] && !isFresh(star.X) {
				pass.Reportf(star.Pos(), "assignment through a pointer to a whole vote document outside internal/vote: documents are frozen once built (their size and digest are fixed on first use)")
			}
			return
		}
		if field := documentField(info, target); field != nil && !isFresh(field.X) {
			pass.Reportf(field.Pos(), "assignment to field %s of a vote document outside internal/vote: documents are frozen once built (their size and digest are fixed on first use)", field.Sel.Name)
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IncDecStmt:
				check(n.X)
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						// By name: under another import name the idiom is flagged, never missed.
						call, _ := n.Rhs[min(i, len(n.Rhs)-1)].(*ast.CallExpr)
						fresh[info.ObjectOf(id)] = call != nil && types.ExprString(call.Fun) == "vote.NewDocument"
						continue
					}
					check(lhs)
				}
			}
			return true
		})
	}
	return nil
}

// documentField walks an assignment target down through its index, selector,
// star and paren expressions and returns the selector of the document field
// nearest the root, or nil if the target reaches none.
func documentField(info *types.Info, target ast.Expr) *ast.SelectorExpr {
	var field *ast.SelectorExpr
	for {
		switch e := target.(type) {
		case *ast.SelectorExpr:
			if sel := info.Selections[e]; sel != nil && frozenTypes[strings.TrimPrefix(sel.Recv().String(), "*")] {
				field = e
			}
			target = e.X
		case *ast.IndexExpr:
			target = e.X
		case *ast.StarExpr:
			target = e.X
		case *ast.ParenExpr:
			target = e.X
		default:
			return field
		}
	}
}
