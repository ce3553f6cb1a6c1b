package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// TestGoldenDefaultTables pins the default pricing tables — the paper's
// $0.074 / $53.28 headline and the cache-tier knockout grid — byte for byte
// against the output of the binary that priced them on the sweep engine.
func TestGoldenDefaultTables(t *testing.T) {
	want, err := os.ReadFile("testdata/default.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run(nil, &out, io.Discard); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from testdata/default.golden:\n%s", out.Bytes())
	}
}

// TestBadWindowRejected: a window that is not finite, positive and within a
// duration is an error, not a priced table.
func TestBadWindowRejected(t *testing.T) {
	for _, w := range []string{"NaN", "Inf", "0", "1e12"} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-minutes", w}, &out, &errOut); code != 1 || out.Len() != 0 || !strings.Contains(errOut.String(), "invalid -minutes") {
			t.Errorf("-minutes %s: exit %d, stdout %q, stderr %q", w, code, out.String(), errOut.String())
		}
	}
}
