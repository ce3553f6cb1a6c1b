package wire

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.Uvarint(300)
	w.Varint(-42)
	w.Byte(7)
	w.Bool(true)
	w.Bool(false)
	w.BytesLP([]byte{1, 2, 3})
	w.Raw([]byte{9, 9})
	w.BytesLP([]byte("hello"))

	r := NewReader(w.Bytes())
	if v := r.Uvarint(); v != 300 {
		t.Fatalf("Uvarint=%d", v)
	}
	if v := r.Varint(); v != -42 {
		t.Fatalf("Varint=%d", v)
	}
	if v := r.Byte(); v != 7 {
		t.Fatalf("Byte=%d", v)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round trip failed")
	}
	if v := r.BytesLP(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("BytesLP=%v", v)
	}
	if v := r.Raw(2); !bytes.Equal(v, []byte{9, 9}) {
		t.Fatalf("Raw=%v", v)
	}
	if v := string(r.BytesLP()); v != "hello" {
		t.Fatalf("String=%q", v)
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
	if r.Err() == nil {
		t.Fatal("truncated Raw not detected")
	}
}

func TestLengthPrefixOverrun(t *testing.T) {
	w := NewWriter(8)
	w.Uvarint(1000) // claims 1000 bytes follow
	r := NewReader(w.Bytes())
	if b := r.BytesLP(); b != nil {
		t.Fatalf("BytesLP returned %d bytes from bogus prefix", len(b))
	}
	if r.Err() != ErrTooLong {
		t.Fatalf("err=%v, want ErrTooLong", r.Err())
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader(nil)
	r.Byte()
	if r.Err() == nil {
		t.Fatal("no error after reading empty buffer")
	}
	// Further reads return zero values without panicking.
	if r.Uvarint() != 0 || r.Varint() != 0 || string(r.BytesLP()) != "" {
		t.Fatal("reads after error returned nonzero values")
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
	f := func(a uint64, b int64, s string, blob []byte, flag bool) bool {
		w := NewWriter(0)
		w.Uvarint(a)
		w.Varint(b)
		w.BytesLP([]byte(s))
		w.BytesLP(blob)
		w.Bool(flag)
		r := NewReader(w.Bytes())
		ga, gb, gs, gblob, gflag := r.Uvarint(), r.Varint(), string(r.BytesLP()), r.BytesLP(), r.Bool()
		return r.Close() == nil && ga == a && gb == b && gs == s &&
			bytes.Equal(gblob, blob) && gflag == flag
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
