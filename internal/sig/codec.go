package sig

import "partialtor/internal/wire"

// WriteSignature appends a signature (signer + raw bytes) to a wire writer.
func WriteSignature(w *wire.Writer, s Signature) {
	w.Varint(int64(s.Signer))
	w.Raw(s.Bytes[:])
}

// WriteDigest appends a digest to a wire writer.
func WriteDigest(w *wire.Writer, d Digest) { w.Raw(d[:]) }

// WriteSignatures appends a length-prefixed signature list.
func WriteSignatures(w *wire.Writer, sigs []Signature) {
	w.Uvarint(uint64(len(sigs)))
	for _, s := range sigs {
		WriteSignature(w, s)
	}
}
