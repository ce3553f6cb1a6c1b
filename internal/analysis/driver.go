package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"
	"strings"
)

// This file is the detlint driver: the glue that feeds packages to the
// analyzer suite. It speaks the cmd/go vet-tool protocol (`go vet
// -vettool=detlint ./...`): cmd/go probes the tool with -V=full (build-cache
// fingerprint) and -flags (supported analyzer flags, JSON), then invokes it
// once per package with a generated vet.cfg describing sources and export
// data.

// vetConfig is the part detlint reads of the JSON config cmd/go writes for
// a vet tool invocation (see cmd/go/internal/work.vetConfig).
type vetConfig struct {
	Compiler                  string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the entry point shared by cmd/detlint. It returns the process
// exit code: 0 clean, 1 usage/load failure, 2 findings (matching the
// unitchecker convention go vet expects).
func Main(args []string) int {
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full":
			return printVersion()
		case args[0] == "-flags":
			// No analyzer flags: the suite is the fixed four checks.
			fmt.Println("[]")
			return 0
		case args[0] == "help", args[0] == "-help", args[0] == "--help":
			printHelp()
			return 0
		case strings.HasSuffix(args[0], ".cfg"):
			return runUnitchecker(args[0])
		}
	}
	// Anything else — package patterns included — is not how detlint runs.
	printHelp()
	return 1
}

func printHelp() {
	fmt.Fprintf(os.Stderr, "detlint: static enforcement of the repo's determinism and hot-path invariants\n\n")
	fmt.Fprintf(os.Stderr, "usage:\n  go vet -vettool=$(which detlint) ./...\n\nanalyzers:\n")
	for _, a := range All() {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(os.Stderr, "\nwaiver syntax: //detlint:<analyzer> ok(<reason>) on the flagged line or the line above\n")
}

// printVersion implements the -V=full fingerprint handshake: cmd/go hashes
// the reported buildID into every vet action's cache key, so editing the
// tool correctly invalidates cached results.
func printVersion() int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("detlint version devel comments-go-here buildID=%x\n", h.Sum(nil))
	return 0
}

// RunAnalyzers runs the full suite over one type-checked package and
// returns the surviving diagnostics in positional order.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range All() {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
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

// runUnitchecker analyzes the single package described by a cmd/go vet.cfg
// file.
func runUnitchecker(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "detlint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// Fact-only invocations exist to propagate analysis facts to dependents.
	// detlint's analyzers are fact-free, so the output is always empty — but
	// the file must exist for cmd/go to cache the action.
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
	}
	if cfg.VetxOnly {
		writeVetx()
		return 0
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				writeVetx()
				return 0
			}
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		files = append(files, f)
	}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	tcfg := &types.Config{
		Importer: unsafeAware{imp},
		Error:    func(error) {}, // collect via the returned error only
	}
	if cfg.GoVersion != "" {
		tcfg.GoVersion = cfg.GoVersion
	}
	info := newTypesInfo()
	pkg, err := tcfg.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx()
			return 0
		}
		fmt.Fprintf(os.Stderr, "detlint: typechecking %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	diags, err := RunAnalyzers(fset, files, pkg, info)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	writeVetx()
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%v: %s\n", fset.Position(d.Pos), d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// unsafeAware routes "unsafe" to types.Unsafe and everything else to the
// wrapped importer.
type unsafeAware struct {
	imp types.Importer
}

func (u unsafeAware) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return u.imp.Import(path)
}
