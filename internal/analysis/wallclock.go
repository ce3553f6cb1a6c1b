package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// simulationPackages are the import paths (and subtree roots) where the
// determinism contract bans wall clocks and the global math/rand stream.
// cmd/* and examples/* stay off the list on purpose: measuring real wall
// time around a simulation (benchtables, cachesweep) is exactly what those
// binaries are for.
var simulationPackages = []string{
	"partialtor/internal/simnet",
	"partialtor/internal/dirv3",
	"partialtor/internal/syncdir",
	"partialtor/internal/core",
	"partialtor/internal/hotstuff",
	"partialtor/internal/dircache",
	"partialtor/internal/faults",
	"partialtor/internal/gossip",
	"partialtor/internal/attack",
	"partialtor/internal/client",
	"partialtor/internal/chain",
	"partialtor/internal/harness",
	"partialtor/internal/topo",
	"partialtor/internal/obs",
	"partialtor/internal/sweep",
}

// wallClockFuncs are the time package functions that read or wait on the
// real clock. time.Duration arithmetic and constants stay legal — simulation
// code *represents* time, it must not *observe* it.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTicker": true, "NewTimer": true,
	"AfterFunc": true,
}

// randConstructors are the math/rand package-level functions that build
// seeded generators rather than drawing from the global stream.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 sources.
	"NewPCG": true, "NewChaCha8": true,
}

// WallClock forbids wall-clock reads (time.Now/Since/Sleep/…) and draws
// from the global math/rand stream inside the simulation packages: both
// smuggle real-world nondeterminism into runs whose outputs must be
// byte-identical for a given seed. The simnet virtual clock and methods on
// a seeded *rand.Rand are the sanctioned sources; cmd/* wall-time
// measurement is outside the scope list.
var WallClock = &Analyzer{
	Name: "wallclock",
	Run:  runWallClock,
}

// inSimulationScope reports whether pkgPath is one of the simulation
// packages (or a subpackage of one).
func inSimulationScope(pkgPath string) bool {
	for _, p := range simulationPackages {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

func runWallClock(pass *Pass) error {
	if !inSimulationScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			// Only package-level functions: methods on *rand.Rand (or on
			// time.Timer values, which cannot exist here without a
			// constructor call being flagged first) carry a receiver.
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if wallClockFuncs[fn.Name()] {
					pass.Reportf(call.Pos(), "time.%s reads the wall clock inside simulation package %s; use the simnet scheduler's virtual time", fn.Name(), pass.Pkg.Path())
				}
			case "math/rand", "math/rand/v2":
				if !randConstructors[fn.Name()] {
					pass.Reportf(call.Pos(), "%s.%s draws from the global rand stream inside simulation package %s; draw from a seeded *rand.Rand instead", fn.Pkg().Name(), fn.Name(), pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil
}
