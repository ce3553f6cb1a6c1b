package partialtor_test

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"partialtor"
)

// These tests exercise the public facade end to end: a downstream user
// should be able to reproduce the paper's headline claims with nothing but
// the root package.

func TestFacadeHealthyRunsAllProtocols(t *testing.T) {
	for _, proto := range []partialtor.Protocol{
		partialtor.Current, partialtor.Synchronous, partialtor.ICPS,
	} {
		res, err := partialtor.RunE(context.Background(), partialtor.Scenario{
			Protocol:     proto,
			Relays:       150,
			EntryPadding: 0,
			Round:        20 * time.Second,
			Seed:         4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Success {
			t.Fatalf("%v failed on a healthy network", proto)
		}
		if res.Latency <= 0 || res.Latency == partialtor.Never {
			t.Fatalf("%v latency %v", proto, res.Latency)
		}
	}
}

func TestFacadeHeadlineAttack(t *testing.T) {
	// Five minutes of DDoS on the majority: the current protocol loses the
	// period, ours recovers within seconds of the attack ending. (Scaled
	// to one minute / small documents; full scale in cmd/benchtables.)
	plan := partialtor.FiveMinuteOutage(partialtor.MajorityTargets(9))
	plan.End = time.Minute

	cur, err := partialtor.RunE(context.Background(), partialtor.Scenario{
		Protocol:     partialtor.Current,
		Relays:       200,
		EntryPadding: 0,
		Round:        15 * time.Second,
		Attack:       &plan,
		Seed:         4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cur.Success {
		t.Fatal("current protocol survived the outage")
	}
	if cur.Consensus() != nil {
		t.Fatal("failed run reports a consensus document")
	}
	for i, r := range cur.Records {
		if r.Published {
			t.Fatalf("authority %d published under the outage", i)
		}
	}

	ours, err := partialtor.RunE(context.Background(), partialtor.Scenario{
		Protocol:     partialtor.ICPS,
		Relays:       200,
		EntryPadding: 0,
		Attack:       &plan,
		Seed:         4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ours.Success {
		t.Fatal("ICPS failed to recover from the outage")
	}
	recovery := ours.DoneAt - plan.End
	if recovery < 0 || recovery > 30*time.Second {
		t.Fatalf("recovery %v, want within seconds of the attack end", recovery)
	}
	if ours.Consensus() == nil {
		t.Fatal("successful run lost its consensus document")
	}
	if len(ours.Records) != 9 {
		t.Fatalf("%d records, want one per authority", len(ours.Records))
	}
	for i, r := range ours.Records {
		if !r.Published || r.Consensus.Digest() != ours.Consensus().Digest() {
			t.Fatalf("authority %d: published=%v, or a consensus other than the run's", i, r.Published)
		}
	}
}

// TestFacadeRunEErrors pins the error contract at the facade: invalid
// configuration is an error, never a panic.
func TestFacadeRunEErrors(t *testing.T) {
	plan := partialtor.AttackPlan{
		Tier:    partialtor.TierCache,
		Targets: partialtor.MajorityTargets(9),
		End:     time.Minute,
	}
	if _, err := partialtor.RunE(context.Background(), partialtor.Scenario{
		Protocol: partialtor.Current,
		Relays:   150,
		Attack:   &plan,
	}); err == nil || !strings.Contains(err.Error(), "authority-tier") {
		t.Fatalf("cache-tier plan error %v", err)
	}
	if _, err := partialtor.NewExperiment(
		partialtor.WithScenario(partialtor.Scenario{Protocol: partialtor.Protocol(404), Relays: 100}),
		partialtor.WithPeriods(1),
	); err == nil || !strings.Contains(err.Error(), "no driver") {
		t.Fatalf("unknown protocol error %v", err)
	}
}

// TestFacadeExperimentPipeline drives the declarative pipeline end to end
// through the facade.
func TestFacadeExperimentPipeline(t *testing.T) {
	exp, err := partialtor.NewExperiment(
		partialtor.WithScenario(partialtor.Scenario{
			Protocol:     partialtor.Current,
			Relays:       150,
			EntryPadding: -1,
			Round:        15 * time.Second,
			Seed:         3,
		}),
		partialtor.WithPeriods(2),
		partialtor.WithDistribution(partialtor.DistributionSpec{
			Clients:     20_000,
			Caches:      5,
			Fleets:      2,
			FetchWindow: 10 * time.Minute,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if phases := fmt.Sprint(exp.Phases()); phases != "[generate distribute avail]" {
		t.Fatalf("phases %v", phases)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Successes != 2 || len(res.Distributions) != 2 {
		t.Fatalf("successes=%d distributions=%d", res.Successes, len(res.Distributions))
	}
	if res.Timeline == nil || res.Availability <= 0 {
		t.Fatalf("availability %v", res.Availability)
	}
}

// TestFacadeSweepCancellation: RunSweepParams keeps completed cells and marks
// skipped ones with the context's error, which SweepFirstErr does not count
// as a failure.
func TestFacadeSweepCancellation(t *testing.T) {
	grid := partialtor.MustNewSweepGrid(partialtor.SweepInts("i", 0, 1, 2, 3))
	ctx, cancel := context.WithCancel(context.Background())
	results := partialtor.RunSweepParams(ctx, grid, partialtor.SweepParams{Workers: 1}, func(_ context.Context, c partialtor.SweepCell) (int, error) {
		if c.Int("i") == 1 {
			cancel()
		}
		return c.Int("i") * 2, nil
	})
	if results[0].Err != nil || results[0].Value != 0 || results[1].Err != nil || results[1].Value != 2 {
		t.Fatalf("completed cells lost: %+v", results[:2])
	}
	if !errors.Is(results[3].Err, context.Canceled) {
		t.Fatalf("cell 3 error %v, want the skipped-cell error wrapping context.Canceled", results[3].Err)
	}
	if err := partialtor.SweepFirstErr(results); err != nil {
		t.Fatalf("a skipped cell counted as a failure: %v", err)
	}
}

func TestFacadeCostModel(t *testing.T) {
	m := partialtor.DefaultCostModel()
	if math.Abs(m.CostPerMonth(5, 5*time.Minute)-53.28) > 0.01 {
		t.Fatalf("monthly cost %.2f", m.CostPerMonth(5, 5*time.Minute))
	}
	if got := partialtor.CostTable().CostPerInstance; math.Abs(got-0.074) > 0.0005 {
		t.Fatalf("instance cost %.4f", got)
	}
}

func TestFacadeHelpers(t *testing.T) {
	names := partialtor.AuthorityNames()
	if len(names) != 9 || names[0] != "moria1" {
		t.Fatalf("authority names %v", names)
	}
	// The returned slice is a copy; mutating it must not leak.
	names[0] = "mallory"
	if partialtor.AuthorityNames()[0] != "moria1" {
		t.Fatal("AuthorityNames leaks internal state")
	}
	if got := partialtor.MajorityTargets(9); len(got) != 5 {
		t.Fatalf("targets %v", got)
	}
	if partialtor.FallbackLatency != 2100*time.Second {
		t.Fatal("fallback latency constant wrong")
	}
	if partialtor.ResidualUnderDDoS != 0.5e6 {
		t.Fatal("residual constant wrong")
	}
}

// TestFacadeCompromisedCaches drives the compromised-mirror subsystem
// through the public facade: an equivocating compromise is detected by
// verifying clients, who still reach target coverage via honest caches.
func TestFacadeCompromisedCaches(t *testing.T) {
	spec := partialtor.DistributionSpec{
		Clients:     20_000,
		Caches:      8,
		Fleets:      2,
		FetchWindow: 10 * time.Minute,
		Seed:        7,
		Compromise: &partialtor.CompromisePlan{
			Targets: partialtor.FirstTargets(2),
			Mode:    partialtor.CompromiseEquivocate,
		},
		VerifyClients: true,
	}
	res, err := partialtor.RunDistribution(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ForkDetections) == 0 {
		t.Fatal("no fork detected through the facade")
	}
	proof := res.ForkDetections[0].Proof
	if proof == nil || len(proof.Culprits()) == 0 {
		t.Fatal("fork proof missing or culprit-free")
	}
	if res.Coverage() < res.Spec.TargetCoverage {
		t.Fatalf("coverage %.3f below target", res.Coverage())
	}
	if res.Misled != 0 {
		t.Fatalf("%d verifying clients misled", res.Misled)
	}
	// The same tier without verification is silently poisoned.
	spec.VerifyClients = false
	blind, err := partialtor.RunDistribution(spec)
	if err != nil {
		t.Fatal(err)
	}
	if blind.Misled == 0 || blind.NaiveCoverage() <= blind.Coverage() {
		t.Fatalf("chain-blind run not poisoned: misled=%d naive=%.3f genuine=%.3f",
			blind.Misled, blind.NaiveCoverage(), blind.Coverage())
	}
	// Pricing: the compromise is rent, not stressor traffic.
	m := partialtor.DefaultCostModel()
	if got := m.CompromiseCostPerMonth(*spec.Compromise); got != 2*m.CachePerMonth {
		t.Fatalf("compromise rent %.2f", got)
	}
}

// walkGo parses every .go file under the roots (directories or single files)
// and hands it to visit.
func walkGo(t *testing.T, fset *token.FileSet, visit func(path string, f *ast.File), roots ...string) {
	t.Helper()
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			visit(filepath.ToSlash(path), f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// mentions records every pkg.Name selector under n whose pkg is one of f's
// imports, as used[import path][Name].
func mentions(used map[string]map[string]bool, f *ast.File, n ast.Node) {
	imports := map[string]string{}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		local := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imports[local] = path
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok && imports[pkg.Name] != "" {
				path := imports[pkg.Name]
				if used[path] == nil {
					used[path] = map[string]bool{}
				}
				used[path][sel.Sel.Name] = true
			}
		}
		return true
	})
}

// exportedDecls calls visit with the identifier of every exported top-level
// func, type, var and const that f declares.
func exportedDecls(f *ast.File, visit func(id *ast.Ident)) {
	check := func(id *ast.Ident) {
		if id.IsExported() {
			visit(id)
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				check(d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					check(spec.Name)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						check(id)
					}
				}
			}
		}
	}
}

// TestFacadeNamesAreReferenced keeps the facade from regrowing: every
// exported name of partialtor.go must be mentioned (as partialtor.Name) by a
// file under cmd/, examples/ or benchmark/, or by an Example function of this
// package. A name only tests use belongs to the internal package that
// defines it.
func TestFacadeNamesAreReferenced(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]map[string]bool{}
	walkGo(t, fset, func(_ string, f *ast.File) { mentions(used, f, f) }, "cmd", "examples", "benchmark")
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	walkGo(t, fset, func(_ string, f *ast.File) {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fn.Name.Name, "Example") {
				mentions(used, f, fn)
			}
		}
	}, tests...)

	facade, err := parser.ParseFile(fset, "partialtor.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	exported := 0
	exportedDecls(facade, func(id *ast.Ident) {
		exported++
		if !used["partialtor"][id.Name] {
			t.Errorf("partialtor.%s is referenced by nothing under cmd/, examples/, benchmark/ or an Example: delete it from the facade", id.Name)
		}
	})
	if exported == 0 {
		t.Fatal("found no exported name in partialtor.go: the test is looking in the wrong place")
	}
}

// TestREADMEListsCommandsAndExamples keeps README.md and the tree from
// drifting apart: every directory under cmd/ and examples/ must be listed —
// open a table row ("| `examples/x`") or a bold entry ("**`cmd/x`**"), since a
// passing mention in prose is how two examples stayed out of the table — and
// every cmd/… or examples/… path README mentions anywhere must exist, and
// every #anchor link into a file of this repository must resolve.
func TestREADMEListsCommandsAndExamples(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	exists := map[string]bool{}
	for _, root := range []string{"cmd", "examples"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			dir := root + "/" + e.Name()
			exists[dir] = true
			listed := regexp.MustCompile("(?m)^(\\| ?|\\*\\*)`" + regexp.QuoteMeta(dir) + "`")
			if !listed.Match(readme) {
				t.Errorf("README.md does not list %s: give it a row of the examples table or an entry under \"Command-line tools\"", dir)
			}
		}
	}
	if !exists["cmd/tordirsim"] || !exists["examples/quickstart"] {
		t.Fatalf("found %v: the test is looking in the wrong place", exists)
	}
	for _, path := range regexp.MustCompile(`\b(cmd|examples)/[a-z][a-z0-9_]*`).FindAll(readme, -1) {
		if !exists[string(path)] {
			t.Errorf("README.md mentions %s, which does not exist", path)
		}
	}

	// Every intra-repo [text](file.md#anchor) link must land on a heading:
	// renaming "Architecture (as of PR n)" used to break README silently.
	links := regexp.MustCompile(`\]\(([A-Za-z0-9_./-]*)#([^)\s]+)\)`).FindAllSubmatch(readme, -1)
	if len(links) == 0 {
		t.Fatal("found no #anchor link in README.md: the test is looking in the wrong place")
	}
	for _, m := range links {
		file, anchor := string(m[1]), string(m[2])
		if file == "" {
			file = "README.md"
		}
		target, err := os.ReadFile(file)
		if err != nil {
			t.Errorf("README.md links to %s#%s: %v", file, anchor, err)
			continue
		}
		if !headingAnchors(target)[anchor] {
			t.Errorf("README.md links to %s#%s, but %s has no heading with that anchor", file, anchor, file)
		}
	}
}

// TestCIRunsCheckScript keeps the list of checks written once, in
// scripts/check.sh: every `run:` of the CI workflow must be exactly `bash
// scripts/check.sh <job>` naming a function of the script, every function
// but `all` must be named by the workflow, and the script's jobs array (what
// `all` runs) must list them in the workflow's order.
func TestCIRunsCheckScript(t *testing.T) {
	workflow, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	script, err := os.ReadFile("scripts/check.sh")
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z]+)\(\) \{$`).FindAllSubmatch(script, -1) {
		funcs[string(m[1])] = true
	}
	runLine := regexp.MustCompile(`^(- )?run:`)
	call := regexp.MustCompile(`^(- )?run: bash scripts/check\.sh ([a-z]+)$`)
	var named []string
	for i, line := range strings.Split(string(workflow), "\n") {
		line = strings.TrimSpace(line)
		if !runLine.MatchString(line) {
			continue
		}
		m := call.FindStringSubmatch(line)
		switch {
		case m == nil:
			t.Errorf("ci.yml:%d: %q; every step runs `bash scripts/check.sh <job>`, the commands live in the script", i+1, line)
		case !funcs[m[2]] || m[2] == "all":
			t.Errorf("ci.yml:%d: scripts/check.sh has no job %q", i+1, m[2])
		default:
			named = append(named, m[2])
		}
	}
	if len(named) == 0 || !funcs["all"] {
		t.Fatalf("found jobs %v in ci.yml and functions %v in scripts/check.sh: the test is looking in the wrong place", named, funcs)
	}
	for f := range funcs {
		if f != "all" && !slices.Contains(named, f) {
			t.Errorf("scripts/check.sh's %s is not run by ci.yml", f)
		}
	}
	var order string
	if m := regexp.MustCompile(`(?m)^jobs=\(([a-z ]+)\)$`).FindSubmatch(script); m != nil {
		order = string(m[1])
	}
	if want := strings.Join(named, " "); order != want {
		t.Errorf("scripts/check.sh's jobs array (what `all` runs) is %q, want ci.yml's order %q", order, want)
	}
}

// headingAnchors returns the anchors GitHub derives from a Markdown file's
// headings: lower-cased, punctuation dropped, spaces turned into hyphens.
func headingAnchors(markdown []byte) map[string]bool {
	anchors := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^#+ +(.+?) *$`).FindAllSubmatch(markdown, -1) {
		slug := regexp.MustCompile(`[^\p{L}\p{N} _-]`).ReplaceAllString(strings.ToLower(string(m[1])), "")
		anchors[strings.ReplaceAll(slug, " ", "-")] = true
	}
	return anchors
}

// unreferencedOnPurpose is the allowlist of TestInternalExportsAreReferenced:
// exported names under internal/ that no non-test file mentions, each with
// the reason it stays. A key is "pkg.Name", or "pkg.*" for a whole package.
// Methods and struct fields are TestInternalFieldsAreSetAndRead's, below.
var unreferencedOnPurpose = map[string]string{
	"testkit.*":             "the shared fixture package of the protocol tests",
	"gossip.EncodeDigest":   "wire-format reference: the digest Size() the mesh charges is pinned against it",
	"gossip.DecodeDigest":   "wire-format reference: round-trip and fuzz tests decode through it",
	"gossip.EncodeVector":   "wire-format reference: the vector Size() the mesh charges is pinned against it",
	"gossip.DecodeVector":   "wire-format reference: round-trip and fuzz tests decode through it",
	"vote.ParseConsensus":   "wire-format reference: inverts Consensus.Encode in the round-trip and fuzz tests",
	"topo.NA":               "region index of Continents(): tests place nodes by it",
	"topo.EU":               "region index of Continents(): tests place nodes by it",
	"topo.AS":               "region index of Continents(): tests place nodes by it",
	"topo.SA":               "region index of Continents(): tests place nodes by it",
	"topo.AF":               "region index of Continents(): tests place nodes by it",
	"topo.OC":               "region index of Continents(): tests place nodes by it",
	"analysis.RunAnalyzers": "the lint runs as a test: the root TestDetlint hands it every package of the module",
}

// TestInternalExportsAreReferenced keeps the internal surface from
// regrowing: every exported top-level func, type, var and const under
// internal/ must be mentioned by a non-test file of this module or of
// benchmark/ — qualified from another package, or by name inside its own —
// other than by its own declaration, or sit in unreferencedOnPurpose. An
// exported name needs a non-test caller or an allowlist line with a reason.
func TestInternalExportsAreReferenced(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]map[string]bool{} // import path -> names mentioned
	type decl struct {
		pkg string // import path
		id  *ast.Ident
	}
	var decls []decl
	walkGo(t, fset, func(path string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") {
			return
		}
		mentions(used, f, f)
		if !strings.HasPrefix(path, "internal/") {
			return
		}
		// Inside its own package a name is mentioned unqualified: count
		// every identifier that is not a declaration, a selected member or
		// a struct field name.
		pkg := "partialtor/" + filepath.ToSlash(filepath.Dir(path))
		if used[pkg] == nil {
			used[pkg] = map[string]bool{}
		}
		declared := map[*ast.Ident]bool{}
		exportedDecls(f, func(id *ast.Ident) {
			declared[id] = true
			decls = append(decls, decl{pkg, id})
		})
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				declared[n.Sel] = true
			case *ast.Field:
				for _, id := range n.Names {
					declared[id] = true
				}
			case *ast.Ident:
				if !declared[n] {
					used[pkg][n.Name] = true
				}
			}
			return true
		})
	}, "partialtor.go", "cmd", "examples", "internal", "benchmark")
	if len(decls) == 0 {
		t.Fatal("found no exported name under internal/: the test is looking in the wrong place")
	}

	matched := map[string]bool{} // allowlist keys that name a declaration
	for _, d := range decls {
		short := strings.TrimPrefix(d.pkg, "partialtor/internal/")
		key := short + "." + d.id.Name
		if _, ok := unreferencedOnPurpose[short+".*"]; ok {
			key = short + ".*"
		}
		reason, listed := unreferencedOnPurpose[key]
		matched[key] = true
		switch mentioned := used[d.pkg][d.id.Name]; {
		case listed && reason == "":
			t.Errorf("allowlist entry %s has no reason", key)
		case listed && mentioned && !strings.HasSuffix(key, ".*"):
			t.Errorf("%s has a non-test caller: drop it from unreferencedOnPurpose", key)
		case !listed && !mentioned:
			t.Errorf("%s (%s) is mentioned by no non-test file: delete it, unexport it, or allowlist it with a reason",
				key, fset.Position(d.id.Pos()))
		}
	}
	for key := range unreferencedOnPurpose {
		if !matched[key] {
			t.Errorf("allowlist entry %s names nothing declared under internal/", key)
		}
	}
}

// typedTree type-checks the non-test files of this module and of benchmark/
// into one types.Info. Packages of the tree are checked here, from their
// directories (the import path partialtor/x/y is the directory x/y, in both
// modules), so that a field or method is one object however many packages
// mention it; the standard library comes from one shared source importer.
type typedTree struct {
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	pkgs  map[string]*typedPackage // by import path
	files []*ast.File
}

// typedPackage is one checked package of the tree with its syntax.
type typedPackage struct {
	types *types.Package
	files []*ast.File
}

func (tt *typedTree) Import(path string) (*types.Package, error) {
	if path != "partialtor" && !strings.HasPrefix(path, "partialtor/") {
		return tt.std.Import(path)
	}
	if pkg, ok := tt.pkgs[path]; ok {
		return pkg.types, nil
	}
	dir := "." + strings.TrimPrefix(path, "partialtor")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Comments are kept: detlint's waivers and //detlint:hotpath are
		// comments.
		f, err := parser.ParseFile(tt.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: tt}).Check(path, tt.fset, files, tt.info)
	if err != nil {
		return nil, err
	}
	tt.pkgs[path] = &typedPackage{pkg, files}
	tt.files = append(tt.files, files...)
	return pkg, nil
}

var (
	treeOnce sync.Once
	tree     *typedTree
	treeErr  error
)

// loadTree returns the tree, type-checked once per test binary and shared by
// TestInternalFieldsAreSetAndRead and TestDetlint. Under -short it skips t.
func loadTree(t *testing.T) *typedTree {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the tree and the standard library from source")
	}
	treeOnce.Do(func() {
		fset := token.NewFileSet()
		tree = &typedTree{
			fset: fset,
			std:  importer.ForCompiler(fset, "source", nil),
			// Everything the analyzers read, not only what the field guard
			// does.
			info: &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Implicits:  map[ast.Node]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
				Scopes:     map[ast.Node]*types.Scope{},
				Instances:  map[*ast.Ident]types.Instance{},
			},
			pkgs: map[string]*typedPackage{},
		}
		for _, root := range []string{"partialtor.go", "cmd", "examples", "internal", "benchmark"} {
			if treeErr = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				switch {
				case err != nil:
					return err
				case d.IsDir() && d.Name() == "testdata":
					return filepath.SkipDir
				case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
					return nil
				}
				_, err = tree.Import(strings.TrimSuffix("partialtor/"+filepath.ToSlash(filepath.Dir(path)), "/."))
				return err
			}); treeErr != nil {
				return
			}
		}
	})
	if treeErr != nil {
		t.Fatal(treeErr)
	}
	return tree
}

// setAndReadOnPurpose is the allowlist of TestInternalFieldsAreSetAndRead:
// exported fields and methods under internal/ that no non-test file writes,
// reads or calls, each with the reason it stays. A key is "pkg.Type.Name", or
// "pkg.Type" for every field and method of a type.
var setAndReadOnPurpose = map[string]string{
	"obs.chromeEvent": "encoding/json reads it into the Chrome trace",
	"testkit.Net":     "the shared fixture type of the protocol tests",

	"hotstuff.Config.Equivocator":     "adversarial hook: the safety tests make a leader Byzantine with it",
	"hotstuff.Config.AltPropose":      "adversarial hook: the value an Equivocator shows the odd-indexed peers",
	"syncdir.Config.EquivocateLeader": "adversarial hook: the Dolev-Strong tests make the leader sign two bundles",
	"simnet.Network.SetDelayFilter":   "adversarial hook: an adversarial scheduler before GST, which partial synchrony allows",
	"simnet.Network.SetDropFilter":    "adversarial hook of unit tests alone: no runner drops, harness's TestDistributionNeverDrops and dircache's TestDistributionLaws hold them to it",

	"faults.Backoff.Budget": "without it Result.RetryDropped, pinned in the frozen benchmark's digests, and cachesweep's dropped column can only read 0",

	"core.Authority.DecidedView":       "the view-change tests assert which view decided",
	"core.AgreementValue.DigestVector": "the X_i of Definition 5.1: the agreement tests compare it across authorities",
	"simnet.Network.Now":               "the GST tests' adversarial delay filters read the clock",
	"sig.Registry.Memoised":            "the sharing tests pin that a healthy run runs Ed25519 on no signature, and the sig tests how many forgeries a run judges",
	"simnet.Profile.Clone":             "the profile tests edit a copy to show the original untouched",
	"simnet.Profile.SetRate":           "the pipe tests shape capacity exactly; runners only ever cap it (ThrottleMin)",
}

// TestInternalFieldsAreSetAndRead is the typed guard beside the two above,
// for what they cannot see. Every exported field of a struct declared under
// internal/ must be written by a non-test file of this module or of
// benchmark/ (a composite-literal key or position, an assignment, ++/--, a
// copy into it, its address taken) other than its own type's withDefaults or
// WithDefaults, and read by one (any other mention); every exported method
// must be called by one, or belong to an interface its type implements. An
// input nobody sets but its default is a constant, a result nobody reads is
// dead, and either goes or sits in setAndReadOnPurpose with a reason.
func TestInternalFieldsAreSetAndRead(t *testing.T) {
	tt := loadTree(t)
	fset, info := tt.fset, tt.info

	// receiver is a method's receiver type, pointer or not.
	receiver := func(fn *types.Func) types.Type {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			return p.Elem()
		}
		return recv
	}

	// What is held to the rule, under the name the allowlist knows it by.
	name := map[types.Object]string{}
	var tracked []types.Object
	track := func(obj types.Object, owner string) {
		if !obj.Exported() || !strings.HasPrefix(obj.Pkg().Path(), "partialtor/internal/") {
			return
		}
		short := strings.TrimPrefix(obj.Pkg().Path(), "partialtor/internal/")
		name[obj] = short + "." + owner + "." + obj.Name()
		tracked = append(tracked, obj)
	}
	for _, f := range tt.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if fn := info.Defs[d.Name].(*types.Func); d.Recv != nil {
					track(fn, receiver(fn).(*types.Named).Obj().Name())
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					spec, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					ast.Inspect(spec.Type, func(n ast.Node) bool {
						if st, ok := n.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, id := range field.Names {
									track(info.Defs[id], spec.Name.Name)
								}
							}
						}
						return true
					})
				}
			}
		}
	}
	if len(tracked) == 0 {
		t.Fatal("found no exported field or method under internal/: the test is looking in the wrong place")
	}

	// Writes first, so that the identifiers they go through are not taken
	// for reads below. A type's own withDefaults or WithDefaults fills in
	// its zero fields, which is no caller setting them: there, a write to a
	// field of the receiver is not counted, so a default no caller overrides
	// shows as the constant it is.
	written, read := map[types.Object]bool{}, map[types.Object]bool{}
	writes := map[*ast.Ident]bool{}
	var defaulting *types.Struct // the receiver's fields, inside a withDefaults
	set := func(v *types.Var) {
		for i := 0; defaulting != nil && i < defaulting.NumFields(); i++ {
			if defaulting.Field(i) == v {
				return
			}
		}
		written[v] = true
	}
	field := func(e ast.Expr) (*ast.Ident, *types.Var) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
				return sel.Sel, v.Origin()
			}
		}
		return nil, nil
	}
	write := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				if id, v := field(e); v != nil {
					set(v)
					writes[id] = true
				}
				return
			}
		}
	}
	builtin := func(call *ast.CallExpr, name string) bool {
		id, ok := call.Fun.(*ast.Ident)
		_, isBuiltin := info.Uses[id].(*types.Builtin)
		return ok && isBuiltin && id.Name == name
	}
	for _, f := range tt.files {
		for _, d := range f.Decls {
			defaulting = nil
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && (fd.Name.Name == "withDefaults" || fd.Name.Name == "WithDefaults") {
				defaulting, _ = receiver(info.Defs[fd.Name].(*types.Func)).Underlying().(*types.Struct)
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := info.TypeOf(n)
					if p, ok := typ.Underlying().(*types.Pointer); ok {
						typ = p.Elem()
					}
					st, ok := typ.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							key := kv.Key.(*ast.Ident)
							set(info.Uses[key].(*types.Var).Origin())
							writes[key] = true
						} else {
							set(st.Field(i).Origin())
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						write(lhs)
					}
					if len(n.Lhs) != len(n.Rhs) {
						break
					}
					// In x.F = append(x.F, …) the x.F inside append is the
					// write's own operand, not a read.
					for i, rhs := range n.Rhs {
						if call, ok := rhs.(*ast.CallExpr); ok && builtin(call, "append") {
							id, v := field(call.Args[0])
							if _, w := field(n.Lhs[i]); v != nil && w == v {
								writes[id] = true
							}
						}
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.CallExpr:
					if builtin(n, "copy") {
						write(n.Args[0])
					}
				case *ast.UnaryExpr:
					// An address escapes: whoever holds it may do either.
					if _, v := field(n.X); n.Op == token.AND && v != nil {
						set(v)
					}
				}
				return true
			})
		}
	}
	for id, obj := range info.Uses {
		switch obj := obj.(type) {
		case *types.Var:
			if obj.IsField() && !writes[id] {
				read[obj.Origin()] = true
			}
		case *types.Func:
			read[obj.Origin()] = true
		}
	}

	// A method called through an interface is a use of the interface's
	// method, not of the concrete one: every interface the checker met, in
	// the tree or in a package it imports, by the names of its methods.
	ifaces := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	addIface := func(typ types.Type) {
		if _, param := typ.(*types.TypeParam); param || typ == nil {
			return
		}
		if it, ok := typ.Underlying().(*types.Interface); ok && !seen[it] {
			seen[it] = true
			for i := 0; i < it.NumMethods(); i++ {
				ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, tv := range info.Types {
		addIface(tv.Type)
	}
	visited := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		for _, n := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range tt.pkgs {
		visit(pkg.types)
	}
	viaInterface := func(fn *types.Func) bool {
		recv := receiver(fn)
		for _, it := range ifaces[fn.Name()] {
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	sort.Slice(tracked, func(i, j int) bool { return name[tracked[i]] < name[tracked[j]] })
	matched := map[string]bool{}
	for _, obj := range tracked {
		var missing string
		switch obj := obj.(type) {
		case *types.Var:
			switch {
			case !written[obj] && !read[obj]:
				missing = "neither written nor read"
			case !written[obj]:
				missing = "never written"
			case !read[obj]:
				missing = "never read"
			}
		case *types.Func:
			if !read[obj] && !viaInterface(obj) {
				missing = "never called"
			}
		}
		key := name[obj]
		whole := key[:strings.LastIndex(key, ".")]
		if _, ok := setAndReadOnPurpose[whole]; ok {
			key = whole
		}
		reason, listed := setAndReadOnPurpose[key]
		matched[key] = true
		switch {
		case listed && reason == "":
			t.Errorf("allowlist entry %s has no reason", key)
		case listed && missing == "" && key != whole:
			t.Errorf("%s is set and read by non-test files: drop it from setAndReadOnPurpose", key)
		case !listed && missing != "":
			t.Errorf("%s (%s) is %s by a non-test file: delete it, make it a constant, or allowlist it with a reason",
				key, fset.Position(obj.Pos()), missing)
		}
	}
	for key := range setAndReadOnPurpose {
		if !matched[key] {
			t.Errorf("allowlist entry %s names no exported field or method under internal/", key)
		}
	}
}

// ExampleRunE runs one scenario end to end: the paper's partially
// synchronous protocol (ICPS) over a healthy nine-authority network.
func ExampleRunE() {
	res, err := partialtor.RunE(context.Background(), partialtor.Scenario{
		Protocol:     partialtor.ICPS,
		Relays:       150, // scaled down from 8000 so the example runs in milliseconds
		EntryPadding: 0,
		Seed:         4,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("success:", res.Success)
	fmt.Println("votes aggregated:", res.Consensus().NumVotes)
	// Output:
	// success: true
	// votes aggregated: 9
}

// ExampleNewExperiment chains the pipeline declaratively: two hourly
// consensus periods of the current Tor protocol, folded into the client
// availability model (Generate → Avail).
func ExampleNewExperiment() {
	exp, err := partialtor.NewExperiment(
		partialtor.WithScenario(partialtor.Scenario{
			Protocol:     partialtor.Current,
			Relays:       150,
			EntryPadding: 0,
			Round:        15 * time.Second,
			Seed:         4,
		}),
		partialtor.WithPeriods(2),
	)
	if err != nil {
		panic(err)
	}
	fmt.Println("phases:", exp.Phases())
	res, err := exp.Run(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Printf("successes: %d/%d\n", res.Successes, len(res.Runs))
	// Output:
	// phases: [generate avail]
	// successes: 2/2
}

// ExampleRunSweepParams shows the grid engine every sweep in this repository
// runs on: named axes spanning a cartesian grid, evaluated cell by cell
// with results in deterministic rank order.
func ExampleRunSweepParams() {
	grid := partialtor.MustNewSweepGrid(
		partialtor.SweepInts("caches", 10, 20),
		partialtor.SweepFloats("residual", 0, 0.5e6),
	)
	serial := partialtor.SweepParams{Workers: 1}
	results := partialtor.RunSweepParams(context.Background(), grid, serial, func(_ context.Context, c partialtor.SweepCell) (string, error) {
		return fmt.Sprintf("%d caches at %.1f Mbit/s", c.Int("caches"), c.Float("residual")/1e6), nil
	})
	for _, r := range results {
		fmt.Println(r.Value)
	}
	// Output:
	// 10 caches at 0.0 Mbit/s
	// 10 caches at 0.5 Mbit/s
	// 20 caches at 0.0 Mbit/s
	// 20 caches at 0.5 Mbit/s
}
