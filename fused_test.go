package partialtor_test

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

// fusedOp matches a fused multiply-add or multiply-subtract in the
// compiler's assembly listing, with the source position it was compiled
// from: FMADDD or FNMSUBD on arm64 and riscv64, FMADD or FMSUBS on ppc64le
// and s390x. FMAXD, a float maximum, does not match.
var fusedOp = regexp.MustCompile(`\((\S+\.go):(\d+)\)\s+(FN?M(?:ADD|SUB)[SD]?)\s`)

// fusingArchs are the targets whose compiler fuses x*y + z; amd64 never
// does.
var fusingArchs = []string{"arm64", "ppc64le", "s390x", "riscv64"}

func TestNoFusedFloatOps(t *testing.T) {
	// The Go spec lets a compiler fuse x*y + z into one multiply-add with a
	// single rounding, and only an explicit conversion, float64(x*y) + z,
	// forbids it. A fused product moves a completion instant, a bandwidth
	// draw or a detector verdict, so the same seed would give other bytes on
	// another CPU. Asking the compiler is exact where a linter would have to
	// guess what it fuses.
	if testing.Short() {
		t.Skip("cross-compiles the module for four architectures: about 20 s each with a cold build cache")
	}
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goTool); err != nil {
		t.Skipf("no go command beside the toolchain: %v", err)
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fused := map[string][]string{} // "file:line: source" → the instructions fused there, per arch
	for _, arch := range fusingArchs {
		cmd := exec.Command(goTool, "build", "-gcflags=-S", "./...")
		cmd.Env = append(os.Environ(), "GOARCH="+arch, "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s build failed: %v\n%s", arch, err, out)
		}
		for listed := range strings.Lines(string(out)) {
			// Every match of fusedOp contains FM or FNM; skipping the other
			// lines of the tens of megabytes of listing loses no site.
			if !strings.Contains(listed, "FM") && !strings.Contains(listed, "FNM") {
				continue
			}
			for _, m := range fusedOp.FindAllStringSubmatch(listed, -1) {
				rel, err := filepath.Rel(root, m[1])
				if err != nil || !filepath.IsLocal(rel) {
					continue // inlined from outside the module
				}
				line := "?"
				if src, err := os.ReadFile(m[1]); err == nil {
					lines := strings.Split(string(src), "\n")
					if n, err := strconv.Atoi(m[2]); err == nil && n >= 1 && n <= len(lines) {
						line = strings.TrimSpace(lines[n-1])
					}
				}
				site := fmt.Sprintf("%s:%s: %s", filepath.ToSlash(rel), m[2], line)
				if op := arch + " " + m[3]; !slices.Contains(fused[site], op) {
					fused[site] = append(fused[site], op)
				}
			}
		}
	}
	if len(fused) > 0 {
		var sites []string
		for site, ops := range fused {
			sites = append(sites, fmt.Sprintf("%s (%s)", site, strings.Join(ops, ", ")))
		}
		slices.Sort(sites)
		t.Fatalf("a compiler fuses a multiply and an add at %d lines; write each product that is added or subtracted as float64(x*y):\n  %s",
			len(sites), strings.Join(sites, "\n  "))
	}
}
