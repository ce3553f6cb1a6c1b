package wire

import "testing"

// FuzzReader: any read sequence over arbitrary bytes must end in either a
// clean close or a sticky error — never a panic.
func FuzzReader(f *testing.F) {
	w := NewWriter(0)
	w.Uvarint(300)
	w.BytesLP([]byte("hello"))
	w.BytesLP([]byte{1, 2, 3})
	w.Varint(-42)
	f.Add(w.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		_ = r.Uvarint()
		_ = string(r.BytesLP())
		_ = r.BytesLP()
		_ = r.Varint()
		_ = r.Bool()
		_ = r.Raw(3)
		if r.Err() == nil && r.Remaining() < 0 {
			t.Fatal("negative remaining")
		}
	})
}
