package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.Uvarint(300)
	w.Varint(-42)
	w.Byte(7)
	w.Raw([]byte{9, 9})

	r := NewReader(w.Bytes())
	if v := r.Uvarint(); v != 300 {
		t.Fatalf("Uvarint=%d", v)
	}
	// No reader decodes a signed varint; binary.Varint inverts the writer.
	if v, n := binary.Varint(r.Raw(1)); n != 1 || v != -42 {
		t.Fatalf("Varint=%d (%d bytes)", v, n)
	}
	if v := r.Byte(); v != 7 {
		t.Fatalf("Byte=%d", v)
	}
	if v := r.Raw(2); !bytes.Equal(v, []byte{9, 9}) {
		t.Fatalf("Raw=%v", v)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestTruncation(t *testing.T) {
	w := NewWriter(8)
	w.Raw(make([]byte, 8))
	r := NewReader(w.Bytes()[:4])
	r.Raw(8)
	if r.Close() != ErrTruncated {
		t.Fatal("truncated Raw not detected")
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader(nil)
	r.Byte()
	// Further reads return zero values without panicking.
	if r.Uvarint() != 0 || r.Byte() != 0 || r.Raw(1) != nil {
		t.Fatal("reads after error returned nonzero values")
	}
	if r.Close() != ErrTruncated {
		t.Fatal("no error after reading empty buffer")
	}
}

func TestTrailingBytes(t *testing.T) {
	w := NewWriter(4)
	w.Byte(1)
	w.Byte(2)
	r := NewReader(w.Bytes())
	r.Byte()
	if err := r.Close(); err == nil {
		t.Fatal("Close accepted trailing bytes")
	}
}

func TestUvarintLen(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1 << 40, 1<<64 - 1} {
		w := NewWriter(12)
		w.Uvarint(v)
		if got := UvarintLen(v); got != len(w.Bytes()) {
			t.Fatalf("UvarintLen(%d)=%d, encoded %d", v, got, len(w.Bytes()))
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(a uint64, c byte, blob []byte) bool {
		w := NewWriter(0)
		w.Uvarint(a)
		w.Byte(c)
		w.Uvarint(uint64(len(blob)))
		w.Raw(blob)
		r := NewReader(w.Bytes())
		ga, gc := r.Uvarint(), r.Byte()
		gblob := r.Raw(int(r.Uvarint()))
		return r.Close() == nil && ga == a && gc == c && bytes.Equal(gblob, blob)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
