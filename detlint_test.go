package partialtor_test

import (
	"sort"
	"strings"
	"testing"

	"partialtor/internal/analysis"
)

// TestDetlint runs the detlint suite (internal/analysis: maporder,
// wallclock, hotpath, tracerguard, frozendoc) over every package of this
// module, on the tree TestInternalFieldsAreSetAndRead reads too, and fails on
// any finding. benchmark/ is a module of its own and stays out, as it does
// from `go vet ./...`.
func TestDetlint(t *testing.T) {
	tt := loadTree(t)
	var paths []string
	for path := range tt.pkgs {
		if path != "partialtor/benchmark" && !strings.HasPrefix(path, "partialtor/benchmark/") {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		t.Fatal("found no package to lint: the test is looking in the wrong place")
	}
	for _, path := range paths {
		pkg := tt.pkgs[path]
		findings, err := analysis.RunAnalyzers(tt.fset, pkg.files, pkg.types, tt.info)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, f := range findings {
			t.Error(f)
		}
	}
	t.Logf("linted %d packages", len(paths))
}
