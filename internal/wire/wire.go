// Package wire provides tiny varint and fixed-width binary encoding helpers.
// Two callers use them: the agreement value's canonical encoding
// (internal/core), whose bytes fix its digest and the size the simulator
// charges for it, and the gossip codec (internal/gossip), whose encoders pin
// the size the mesh charges per push and per vector. Encoders never fail;
// decoders carry a sticky error so call sites stay linear and check once, at
// Close.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated reports a read past the end of the buffer.
var ErrTruncated = errors.New("wire: truncated input")

// ErrTooLong reports a length prefix exceeding the remaining input.
var ErrTooLong = errors.New("wire: length prefix exceeds input")

// Writer accumulates an encoded message.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with an optional size hint.
func NewWriter(hint int) *Writer { return &Writer{buf: make([]byte, 0, hint)} }

// Bytes returns the encoded buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Uvarint appends a varint-encoded unsigned integer.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Varint appends a varint-encoded signed integer.
func (w *Writer) Varint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Byte appends a single byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Raw appends bytes without a length prefix (fixed-size fields).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Reader decodes a buffer produced by Writer.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps an encoded buffer.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint reads a varint-encoded unsigned integer.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += n
	return v
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 1 {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Raw reads exactly n bytes without a length prefix.
func (r *Reader) Raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.fail(ErrTruncated)
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:r.off+n])
	r.off += n
	return out
}

// Close verifies that the whole buffer was consumed and no error occurred.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes", r.Remaining())
	}
	return nil
}

// UvarintLen returns the encoded size of v, for size accounting.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
