package simnet

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// fusedOp matches a fused multiply-add in the compiler's assembly listing,
// with the source position it was compiled from.
var fusedOp = regexp.MustCompile(`\((\S+\.go):(\d+)\)\s+(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\s`)

func TestSimnetHasNoFusedFloatOps(t *testing.T) {
	// The Go spec lets a compiler fuse x*y + z into one multiply-add with a
	// single rounding; amd64 never does, arm64 does, and only an explicit
	// conversion, float64(x*y) + z, forbids it. A fused product in the fluid
	// model moves a completion instant, so the same seed would give other
	// bytes on an arm64 host. Asking the compiler is exact where a linter
	// would have to guess what it fuses.
	if testing.Short() {
		t.Skip("cross-compiles the package for arm64: about 10 s with a cold build cache")
	}
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goTool); err != nil {
		t.Skipf("no go command beside the toolchain: %v", err)
	}
	cmd := exec.Command(goTool, "build", "-gcflags=-S", ".")
	cmd.Env = append(os.Environ(), "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arm64 build failed: %v\n%s", err, out)
	}
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var sites []string
	for _, m := range fusedOp.FindAllStringSubmatch(string(out), -1) {
		if filepath.Dir(m[1]) != dir {
			continue // inlined from another package
		}
		sites = append(sites, fmt.Sprintf("%s:%s: %s (%s)", filepath.Base(m[1]), m[2], sourceLine(m[1], m[2]), m[3]))
	}
	if sites = slices.Compact(slices.Sorted(slices.Values(sites))); len(sites) > 0 {
		t.Fatalf("arm64 fuses a multiply and an add at %d lines; write each product that is added or subtracted as float64(x*y):\n  %s",
			len(sites), strings.Join(sites, "\n  "))
	}
}

// sourceLine returns line n of file, trimmed, or "?" if it cannot be read.
func sourceLine(file, n string) string {
	data, err := os.ReadFile(file)
	i, convErr := strconv.Atoi(n)
	if err != nil || convErr != nil {
		return "?"
	}
	if lines := strings.Split(string(data), "\n"); i >= 1 && i <= len(lines) {
		return strings.TrimSpace(lines[i-1])
	}
	return "?"
}
