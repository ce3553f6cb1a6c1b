package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// This harness is a dependency-free stand-in for
// golang.org/x/tools/go/analysis/analysistest. Fixtures are txtar archives
// under testdata/, one per analyzer; file names inside an archive are import
// paths (the directory becomes the fixture package's path, which is how the
// wallclock scope list and the obs-package suffix match are exercised).
// A `// want "<regexp>"` comment marks a line where exactly one diagnostic
// matching the regexp must be reported; any unmatched diagnostic or
// unsatisfied want fails the test.

type fixtureFile struct {
	name string
	data string
}

// parseTxtar parses the txtar archive format: `-- name --` lines separate
// files, anything before the first separator is archive comment.
func parseTxtar(data string) []fixtureFile {
	var out []fixtureFile
	var cur *fixtureFile
	var buf strings.Builder
	flush := func() {
		if cur != nil {
			cur.data = buf.String()
			out = append(out, *cur)
			buf.Reset()
			cur = nil
		}
	}
	for _, line := range strings.SplitAfter(data, "\n") {
		trimmed := strings.TrimRight(line, "\n")
		if strings.HasPrefix(trimmed, "-- ") && strings.HasSuffix(trimmed, " --") {
			flush()
			cur = &fixtureFile{name: strings.TrimSpace(trimmed[3 : len(trimmed)-3])}
			continue
		}
		if cur != nil {
			buf.WriteString(line)
		}
	}
	flush()
	return out
}

var (
	stdImporterOnce sync.Once
	stdImporterInst types.Importer
)

// stdImporter typechecks standard-library imports from GOROOT source. The
// instance is shared across tests: source-importing fmt pulls in a sizable
// dependency tree and the importer caches it.
func stdImporter() types.Importer {
	stdImporterOnce.Do(func() {
		stdImporterInst = importer.ForCompiler(token.NewFileSet(), "source", nil)
	})
	return stdImporterInst
}

// fixtureImporter serves the archive's own packages first and falls back to
// the standard library for everything else.
type fixtureImporter struct {
	local map[string]*types.Package
}

func (fi fixtureImporter) Import(pth string) (*types.Package, error) {
	if p, ok := fi.local[pth]; ok {
		return p, nil
	}
	return stdImporter().Import(pth)
}

func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile(`//\s*want "([^"]*)"`)

// runFixture loads testdata/<archive>, typechecks its packages in order of
// first appearance, runs the analyzer over each, and matches the diagnostics
// against the fixture's want comments.
func runFixture(t *testing.T, a *Analyzer, archive string) {
	t.Helper()
	raw, err := os.ReadFile("testdata/" + archive)
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}

	type pkgSrc struct {
		path  string
		files []*ast.File
	}
	fset := token.NewFileSet()
	var pkgs []*pkgSrc
	index := map[string]*pkgSrc{}
	var wants []*expectation
	for _, f := range parseTxtar(string(raw)) {
		if !strings.HasSuffix(f.name, ".go") {
			continue
		}
		af, err := parser.ParseFile(fset, f.name, f.data, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture file %s: %v", f.name, err)
		}
		dir := path.Dir(f.name)
		ps := index[dir]
		if ps == nil {
			ps = &pkgSrc{path: dir}
			index[dir] = ps
			pkgs = append(pkgs, ps)
		}
		ps.files = append(ps.files, af)
		for i, line := range strings.Split(f.data, "\n") {
			if m := wantRe.FindStringSubmatch(line); m != nil {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp: %v", f.name, i+1, err)
				}
				wants = append(wants, &expectation{file: f.name, line: i + 1, re: re})
			}
		}
	}

	local := map[string]*types.Package{}
	var diags []Diagnostic
	for _, ps := range pkgs {
		info := newTypesInfo()
		cfg := &types.Config{Importer: fixtureImporter{local}, Error: func(error) {}}
		pkg, err := cfg.Check(ps.path, fset, ps.files, info)
		if err != nil {
			t.Fatalf("typechecking fixture package %s: %v", ps.path, err)
		}
		local[ps.path] = pkg
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     ps.files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, ps.path, err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %v: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}
