// Command detlint is the multichecker for the repo's determinism and
// hot-path invariants (internal/analysis): maporder, wallclock, hotpath,
// tracerguard and frozendoc.
//
// It speaks the cmd/go vet-tool protocol, so the canonical invocation is
//
//	go build -o bin/detlint ./cmd/detlint
//	go vet -vettool=$(pwd)/bin/detlint ./...
//
// which runs every analyzer over every package (test variants included)
// with cmd/go's caching. Run `detlint help` for the analyzer list and the
// waiver syntax.
package main

import (
	"os"

	"partialtor/internal/analysis"
)

func main() {
	os.Exit(analysis.Main(os.Args[1:]))
}
