package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Analyzer is one named invariant check. The shape deliberately mirrors
// golang.org/x/tools/go/analysis so the suite can migrate onto the upstream
// framework wholesale if the dependency ever becomes available; until then
// the repo carries this dependency-free reimplementation of the subset it
// needs (single-package syntax+types passes, no facts).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in waiver comments:
	// a `//detlint:<Name> ok(<reason>)` comment on the flagged line (or the
	// line directly above it) suppresses the finding.
	Name string
	// Doc is the one-paragraph description printed by `detlint help`.
	Doc string
	// Run performs the check over one package and reports findings through
	// pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information through an
// Analyzer.Run invocation.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report receives every diagnostic that survives the test-file and
	// waiver filters. The driver installs it.
	Report func(Diagnostic)

	// waived maps file base positions to the set of lines suppressed for
	// this analyzer, built lazily from the files' waiver comments.
	waived map[*token.File]map[int]bool
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// waiverRe matches a waiver comment: //detlint:<analyzer> ok(<reason>).
// The reason is mandatory — a waiver without one does not suppress.
var waiverRe = regexp.MustCompile(`^//detlint:([a-z]+) ok\((.+)\)\s*$`)

// HotPathDirective is the annotation that opts a function into the hotpath
// analyzer's allocation rules.
const HotPathDirective = "//detlint:hotpath"

// Reportf reports a finding at pos unless the position is inside a _test.go
// file (the invariants govern simulation code, not its tests) or the line
// carries a waiver for this analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if strings.HasSuffix(position.Filename, "_test.go") {
		return
	}
	if p.waivedAt(pos) {
		return
	}
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// waivedAt reports whether pos sits on a line suppressed by a
// //detlint:<name> ok(reason) comment on the same line or the line above.
func (p *Pass) waivedAt(pos token.Pos) bool {
	tf := p.Fset.File(pos)
	if tf == nil {
		return false
	}
	if p.waived == nil {
		p.waived = make(map[*token.File]map[int]bool)
		for _, f := range p.Files {
			ff := p.Fset.File(f.Pos())
			if ff == nil {
				continue
			}
			lines := make(map[int]bool)
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := waiverRe.FindStringSubmatch(c.Text)
					if m == nil || m[1] != p.Analyzer.Name {
						continue
					}
					line := p.Fset.Position(c.Pos()).Line
					// The waiver covers its own line (end-of-line form) and
					// the line below (comment-above form).
					lines[line] = true
					lines[line+1] = true
				}
			}
			p.waived[ff] = lines
		}
	}
	return p.waived[tf][p.Fset.Position(pos).Line]
}

// hasDirective reports whether the comment group (typically a declaration's
// doc comment) contains the given //detlint: directive as a whole line.
// Waiver-form comments (`ok(...)` suffix) are not directives.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// walkPath is ast.Inspect with an ancestor path: fn sees every node along
// with the chain of its ancestors (outermost first, excluding the node
// itself). The path slice is reused between calls — copy it to retain it.
func walkPath(root ast.Node, fn func(n ast.Node, path []ast.Node)) {
	var path []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			path = path[:len(path)-1]
			return true
		}
		fn(n, path)
		path = append(path, n)
		return true
	})
}

// chainString renders an expression made only of identifiers, field
// selections and parentheses ("n.obs", "c.net.obs") for syntactic
// comparison. ok is false for any other expression shape.
func chainString(e ast.Expr) (s string, ok bool) {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.ParenExpr:
		return chainString(e.X)
	case *ast.SelectorExpr:
		base, ok := chainString(e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	}
	return "", false
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.ObjectOf(id).(*types.Nil)
	return isNil
}

// All returns the detlint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{MapOrder, WallClock, HotPath, TracerGuard, FrozenDoc}
}
