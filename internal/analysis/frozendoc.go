package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// frozenTypes are the document types, as types.Type.String spells them.
var frozenTypes = map[string]bool{"partialtor/internal/vote.Document": true, "partialtor/internal/vote.Consensus": true}

// FrozenDoc keeps vote documents immutable outside internal/vote: a
// document's seal fixes its size and digest, a consensus's Encode keeps its
// bytes, and the run-scoped memos key on them. Only a local the same function
// got from vote.NewDocument may still be written (the EntryPadding idiom).
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
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				switch lhs := lhs.(type) {
				case *ast.Ident:
					// By name: under another import name the idiom is flagged, never missed.
					call, _ := as.Rhs[min(i, len(as.Rhs)-1)].(*ast.CallExpr)
					fresh[info.ObjectOf(lhs)] = call != nil && types.ExprString(call.Fun) == "vote.NewDocument"
				case *ast.SelectorExpr:
					root, _ := lhs.X.(*ast.Ident)
					if sel := info.Selections[lhs]; sel != nil && frozenTypes[strings.TrimPrefix(sel.Recv().String(), "*")] && (root == nil || !fresh[info.ObjectOf(root)]) {
						pass.Reportf(lhs.Pos(), "assignment to field %s of a vote document outside internal/vote: documents are frozen once built (their size and digest are fixed on first use)", lhs.Sel.Name)
					}
				}
			}
			return true
		})
	}
	return nil
}
