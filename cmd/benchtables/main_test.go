package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"partialtor"
)

// TestGoldenQuickArtifacts pins `benchtables -quick` byte for byte, one
// golden per artifact; concatenated in registry order they are the whole
// -quick output. The goldens were captured from the binary of the commit
// before the artifact registry existed, so they prove the registry, the
// sweep-table helper and every preset carried over reproduce the hand-written
// generators exactly. Every artifact is compared serially and on all cores.
func TestGoldenQuickArtifacts(t *testing.T) {
	for _, a := range partialtor.Artifacts() {
		t.Run(a.Name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", a.Name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []string{"1", "0"} {
				var out bytes.Buffer
				if code := run([]string{"-quick", "-only", a.Name, "-workers", w}, &out, io.Discard); code != 0 {
					t.Fatalf("-workers %s: exit %d", w, code)
				}
				if !bytes.Equal(out.Bytes(), want) {
					t.Errorf("-workers %s: output differs from testdata/%s.golden:\n%s", w, a.Name, out.Bytes())
				}
			}
		})
	}
}

func TestUnknownArtifact(t *testing.T) {
	var errOut bytes.Buffer
	if code := run([]string{"-only", "fig99"}, io.Discard, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2 (%s)", code, errOut.String())
	}
}
