// Package binfmt is the one binary codec behind every SK* format
// (docs/FORMATS.md). Each format is little-endian and starts with the
// same 8-byte header, a 4-byte ASCII magic plus a u32 version, so this
// package owns two decisions for all of them: how a blob starts, and how
// a declared length is bounded before anything trusts it.
//
// Encoders build blobs with AppendHeader, AppendBlob and AppendInt64s,
// and call encoding/binary's Append functions for everything else.
// Decoders read through a Reader, which keeps the first error, so a
// decoder is a straight run of reads followed by one error check.
package binfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// HeaderLen is the length of the magic-plus-version header.
const HeaderLen = 8

// ErrBadMagic is wrapped by the error Open records when a blob starts
// with the wrong magic.
var ErrBadMagic = errors.New("bad magic")

// AppendHeader appends the 4-byte magic and the u32 version.
func AppendHeader(b []byte, magic string, version uint32) []byte {
	b = append(b, magic...)
	return binary.LittleEndian.AppendUint32(b, version)
}

// AppendBlob appends sub as a u32-length-prefixed sub-blob.
func AppendBlob(b, sub []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sub)))
	return append(b, sub...)
}

// AppendInt64s appends vs as consecutive i64 values, with no count.
func AppendInt64s(b []byte, vs []int64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// Reader is a bounds-checked little-endian reader over one blob. The
// first failed read records an error and empties the reader; every
// later read returns a zero value, so callers check Err or Done once,
// after the reads whose results they are about to trust. A Reader
// never allocates except in Int64s and when it records an error.
type Reader struct {
	b    []byte
	name string // prefix of every error: the magic, or the protocol name
	err  error
}

// NewReader returns a Reader over b, a blob with no header (a protocol
// payload). name prefixes its errors.
func NewReader(name string, b []byte) Reader {
	return Reader{b: b, name: name}
}

// Open returns a Reader positioned after data's header, having checked
// that data is long enough for one, starts with magic, and carries
// version. A mismatch is recorded as the Reader's error.
func Open(data []byte, magic string, version uint32) Reader {
	r := Reader{b: data, name: magic}
	switch {
	case len(data) < HeaderLen:
		r.fail("truncated: %d bytes, header needs %d", len(data), HeaderLen)
	case string(data[:4]) != magic:
		r.fail("%w %q", ErrBadMagic, data[:4])
	case binary.LittleEndian.Uint32(data[4:HeaderLen]) != version:
		r.fail("unsupported version %d, want %d", binary.LittleEndian.Uint32(data[4:HeaderLen]), version)
	default:
		r.b = data[HeaderLen:]
	}
	return r
}

// fail records the first error and empties the reader.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(r.name+": "+format, args...)
	}
	r.b = nil
}

// Err returns the first error recorded, if any.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) }

// Done returns the first error recorded, or an error if any bytes
// remain unread. Call it after the last field.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("%s: %d trailing bytes", r.name, len(r.b))
	}
	return r.err
}

// Bytes consumes n bytes and returns them without copying; the result
// aliases the blob. A negative n, or one larger than what remains, is
// an error.
func (r *Reader) Bytes(n int) []byte {
	if n < 0 || n > len(r.b) {
		r.fail("truncated: %d bytes wanted, %d remain", n, len(r.b))
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a u16.
func (r *Reader) U16() uint16 {
	if b := r.Bytes(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a u32.
func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a u64.
func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// I64 reads an i64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Uvarint reads an encoding/binary uvarint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Blob reads a u32-length-prefixed sub-blob, bounding the declared
// length by the bytes that remain. The result aliases the blob.
func (r *Reader) Blob() []byte {
	n := r.U32()
	if uint64(n) > uint64(len(r.b)) {
		r.fail("sub-blob declares %d bytes but only %d remain", n, len(r.b))
		return nil
	}
	return r.Bytes(int(n))
}

// Int64s reads n consecutive i64 values. It checks 8·n against the
// bytes that remain before it allocates, so a hostile count cannot
// demand memory the blob never carried.
func (r *Reader) Int64s(n uint64) []int64 {
	if n > uint64(len(r.b))/8 {
		r.fail("%d int64s declared but only %d bytes remain", n, len(r.b))
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = int64(binary.LittleEndian.Uint64(r.b[8*i:]))
	}
	r.b = r.b[8*n:]
	return vs
}
