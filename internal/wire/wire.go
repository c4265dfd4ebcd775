// Package wire is the one codec behind every message, record and proof
// encoding in this module: an append Writer and a read cursor, Reader, over
// big-endian fixed-width integers and u32-length-prefixed byte strings.
// Stream framing (transport frame headers, the file log's CRC-checked record
// frames) is not its business; it encodes what goes inside a frame.
//
// A Reader keeps the first error it meets and turns every later call into a
// no-op that returns zero values, so a decoder reads its whole field list and
// checks once, at Finish. The rules every decoder inherits:
//
//   - Version(want) refuses any leading format byte but want;
//   - Count(max, width) refuses a u32 count above max, or one whose elements,
//     each at least width bytes encoded, cannot fit in the bytes left — so a
//     slice a hostile count sizes grows with the input that carries its
//     elements, never with the claim;
//   - Bool accepts only the bytes 0 and 1, so every accepted input is the
//     one its decoded value re-encodes to;
//   - Take and Blob return subslices of the input, bounded by the bytes
//     present, never copies;
//   - Finish refuses trailing bytes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Writer appends an encoding to a byte slice. The zero value is an empty
// writer.
type Writer struct{ b []byte }

// NewWriter returns a writer appending to dst, so a caller can reuse one
// buffer across encodings.
func NewWriter(dst []byte) Writer { return Writer{b: dst} }

// Bytes returns the encoding written so far.
func (w *Writer) Bytes() []byte { return w.b }

// U8 appends one byte.
func (w *Writer) U8(v byte) { w.b = append(w.b, v) }

// U32 appends a big-endian u32.
func (w *Writer) U32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }

// U64 appends a big-endian u64.
func (w *Writer) U64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }

// Bool appends 1 for true and 0 for false.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Raw appends b with no length prefix: a fixed-width field, or the tail of
// an encoding.
func (w *Writer) Raw(b []byte) { w.b = append(w.b, b...) }

// Blob appends b behind a u32 length prefix.
func (w *Writer) Blob(b []byte) {
	w.U32(uint32(len(b)))
	w.Raw(b)
}

// Mark reserves a u32 length prefix and returns the position Patch fills in.
// Together they write a length-prefixed sub-encoding straight into the
// enclosing buffer, where Blob would need it built and copied first.
func (w *Writer) Mark() int {
	w.U32(0)
	return len(w.b)
}

// Patch sets the prefix Mark reserved to the number of bytes written since.
func (w *Writer) Patch(mark int) {
	binary.BigEndian.PutUint32(w.b[mark-4:mark], uint32(len(w.b)-mark))
}

// Reader is a read cursor over one encoding.
type Reader struct {
	b   []byte
	err error
	pkg string
}

// NewReader opens a cursor on b. pkg names the decoding package in error
// texts ("vdp: truncated encoding").
func NewReader(pkg string, b []byte) Reader { return Reader{b: b, pkg: pkg} }

// Err returns the first error the reader met.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(format string, args ...any) {
	r.err = fmt.Errorf("%s: %s", r.pkg, fmt.Sprintf(format, args...))
}

// Version consumes the leading format byte and refuses any but want.
func (r *Reader) Version(want byte) {
	if v := r.U8(); r.err == nil && v != want {
		r.fail("unsupported wire format version %d (this build speaks %d)", v, want)
	}
}

// Take consumes the next n bytes.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	// n < 0 is a hostile u32 length that wrapped on a 32-bit build.
	if n < 0 || len(r.b) < n {
		r.err = errors.New(r.pkg + ": truncated encoding")
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// U8 consumes one byte.
func (r *Reader) U8() byte {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// U32 consumes a big-endian u32.
func (r *Reader) U32() uint32 {
	if b := r.Take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// U64 consumes a big-endian u64.
func (r *Reader) U64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Bool consumes one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.U8()
	if r.err == nil && v > 1 {
		r.fail("flag byte %d is neither 0 nor 1", v)
	}
	return v == 1
}

// Blob consumes a u32 length prefix and the bytes it covers.
func (r *Reader) Blob() []byte {
	return r.Take(int(r.U32()))
}

// Count consumes a u32 element count, refusing one above max or one whose
// elements cannot fit in the bytes left when each takes at least width bytes
// (a lower bound: a fixed element's size, or the prefix a variable one
// starts with).
func (r *Reader) Count(max, width int) int {
	n := r.U32()
	if r.err != nil {
		return 0
	}
	if uint64(n) > uint64(max) {
		r.fail("encoding claims %d elements, limit %d", n, max)
		return 0
	}
	if uint64(n)*uint64(width) > uint64(len(r.b)) {
		r.fail("encoding claims %d elements of %d bytes in %d bytes", n, width, len(r.b))
		return 0
	}
	return int(n)
}

// Rest consumes everything left.
func (r *Reader) Rest() []byte {
	return r.Take(len(r.b))
}

// Finish returns the first error, or an error if bytes are left over.
func (r *Reader) Finish() error {
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d trailing bytes in encoding", len(r.b))
	}
	return r.err
}

// Parse decodes b, a field the reader just consumed, with parse; parse's
// error becomes the reader's. Every group element, scalar, proof and nested
// encoding is read through it. It returns the zero value without calling
// parse once the reader has failed.
func Parse[T any](r *Reader, b []byte, parse func([]byte) (T, error)) T {
	var v T
	if r.err != nil {
		return v
	}
	v, r.err = parse(b)
	return v
}
