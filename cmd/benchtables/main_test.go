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

// TestGoldenPaperScaleFigure11 pins one artifact at the paper's own scale:
// the quick presets stop at 300 relays, and this one builds, hashes and
// aggregates the 25 MB votes of a 10 000-relay network. It is the only test
// -short skips (CI's race job passes -short for that reason).
func TestGoldenPaperScaleFigure11(t *testing.T) {
	if testing.Short() {
		t.Skip("paper scale: a 10 000-relay sweep")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "paper_fig11.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{"-only", "fig11"}, &out, io.Discard); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from testdata/paper_fig11.golden:\n%s", out.Bytes())
	}
}

func TestUnknownArtifact(t *testing.T) {
	var errOut bytes.Buffer
	if code := run([]string{"-only", "fig99"}, io.Discard, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2 (%s)", code, errOut.String())
	}
}
