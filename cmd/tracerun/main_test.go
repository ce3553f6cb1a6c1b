package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// TestGoldenDetect pins the detector's verdict on a scaled-down Figure-10
// flood byte for byte against the output of the binary whose detector was
// still configured through obs.DetectorConfig: turning its six knobs into
// constants moved no detection.
func TestGoldenDetect(t *testing.T) {
	want, err := os.ReadFile("testdata/detect.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run(strings.Fields("-relays 300 -round 15s -detect"), &out, io.Discard); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from testdata/detect.golden:\n%s", out.Bytes())
	}
}
