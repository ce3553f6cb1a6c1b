package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// TestGoldenDistributionRun pins the report of one run through every tier —
// consensus, meshed caches, a mid-window crash, backoff fleets — byte for
// byte against the output of the binary before main became run.
func TestGoldenDistributionRun(t *testing.T) {
	want, err := os.ReadFile("testdata/distribution.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	args := strings.Fields("-clients 20000 -caches 12 -relays 300 -gossip 3 -crash 0.3 -backoff")
	if code := run(args, &out, io.Discard); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from testdata/distribution.golden:\n%s", out.Bytes())
	}
}
