package main

import (
	"bytes"
	"io"
	"os"
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
