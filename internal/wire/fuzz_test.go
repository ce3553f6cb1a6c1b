package wire

import "testing"

// FuzzReader: any read sequence over arbitrary bytes must end in either a
// clean close or a sticky error — never a panic.
func FuzzReader(f *testing.F) {
	w := NewWriter(0)
	w.Uvarint(300)
	w.Byte(7)
	w.Raw([]byte("abc"))
	w.Uvarint(5)
	f.Add(w.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		_ = r.Uvarint()
		_ = r.Byte()
		_ = r.Raw(3)
		_ = r.Uvarint()
		if r.Remaining() < 0 {
			t.Fatal("negative remaining")
		}
		_ = r.Close()
	})
}
