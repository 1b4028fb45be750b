// Package wire implements SKSP, sketchd's binary streaming ingest
// protocol: length-prefixed, CRC-checked frames over a persistent TCP
// connection, carrying tenant- and stream-grouped update batches with a
// per-frame (clientID, seq) identity for idempotent replay.
//
// A connection starts with an 8-byte header in each direction — the
// 4-byte ASCII magic "SKSP" plus a u32 version — then carries frames:
//
//	offset  size  field
//	0       1     frame type (1 DATA, 2 ACK, 3 REJECT, 4 ERROR)
//	1       4     payload length n (u32, ≤ MaxFramePayload)
//	5       4     CRC-32 (IEEE) of the payload
//	9       n     payload
//
// Everything is little-endian, following the SKCP envelope
// discipline (docs/FORMATS.md): declared lengths and counts are
// validated against the remaining payload BEFORE any allocation, and
// the CRC must match before a single payload byte is interpreted.
//
// DATA payload (client → server):
//
//	u64 seq · u8 clientID len + bytes · u8 tenant len + bytes (0 ⇒
//	default tenant) · groups section: uvarint group count · per group:
//	u8 stream name len + bytes · uvarint update count · per update
//	uvarint value + varint (zigzag) weight.
//
// The groups section alone is also an HTTP /update body
// (GroupsContentType): a cluster merger forwards each shard its slice
// of a request that way.
//
// ACK payload (server → client): u64 seq · u64 applied · u8 flags
// (bit 0: duplicate — the frame was already applied and was NOT
// re-applied). REJECT payload: u64 seq · u32 retry-after seconds (the
// 429 of the protocol: nothing was applied, resend the same frame
// after the hint). ERROR payload: u64 seq · u16 message len + bytes
// (permanent; resending the same frame cannot succeed).
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"skimsketch/internal/binfmt"
	"skimsketch/internal/stream"
)

// Magic is the 4-byte connection-header magic.
const Magic = "SKSP"

// Version is the protocol version spoken by this package.
const Version = 1

// MaxFramePayload bounds a frame's declared payload length; Next
// rejects larger declarations before reading (or allocating) anything.
const MaxFramePayload = 1 << 22

// GroupsContentType is the Content-Type of an HTTP /update body that
// carries a DATA payload's groups section (AppendGroups) in place of
// JSON. The request's URL names the tenant and its Idempotency-Key
// header the (clientID, seq), as for a JSON body.
const GroupsContentType = "application/x-sksp-groups"

// MaxNameLen bounds clientID, tenant and stream names on the wire
// (they are u8-length-prefixed).
const MaxNameLen = 255

// FrameType discriminates the frame envelope.
type FrameType uint8

const (
	FrameData   FrameType = 1
	FrameAck    FrameType = 2
	FrameReject FrameType = 3
	FrameError  FrameType = 4
)

const envelopeLen = 9 // type + length + crc

// Data is a decoded DATA frame. Successive DecodeData calls into the
// same Data reuse its backing buffers (the Updates slices of Groups all
// alias one internal array), so a steady-state decode loop allocates
// nothing; the contents are valid until the next DecodeData call unless
// ownership is handed off (see sketchd's release contract).
type Data struct {
	ClientID string
	Seq      uint64
	Tenant   string
	Groups   []stream.Group

	buf   []stream.Update   // shared backing array for all groups
	names map[string]string // interning cache for the string fields
}

// Ack acknowledges a DATA frame: Applied elements were admitted.
// Duplicate marks a replay that was answered from the dedupe window
// without re-applying.
type Ack struct {
	Seq       uint64
	Applied   int64
	Duplicate bool
}

// Reject is the protocol's 429: the frame was not applied (not even
// partially) and should be resent, same seq, after RetryAfter seconds.
type Reject struct {
	Seq        uint64
	RetryAfter uint32
}

// ErrorFrame reports a permanent per-frame failure (unknown stream,
// out-of-domain value, malformed frame): replaying the same frame can
// never succeed.
type ErrorFrame struct {
	Seq uint64
	Msg string
}

// Writer frames SKSP messages onto w. It buffers internally; callers
// must Flush after writing (typically once per frame on the client,
// once per read burst on the server). Not safe for concurrent use.
type Writer struct {
	w       *bufio.Writer
	scratch []byte
}

// NewWriter returns a Writer framing onto w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// WriteHeader writes the 8-byte connection header. Each side sends it
// once, before any frame.
func (w *Writer) WriteHeader() error {
	_, err := w.w.Write(binfmt.AppendHeader(make([]byte, 0, binfmt.HeaderLen), Magic, Version))
	return err
}

// Flush pushes buffered frames to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// writeFrame emits one envelope around the payload staged in w.scratch.
func (w *Writer) writeFrame(t FrameType) error {
	if len(w.scratch) > MaxFramePayload {
		return fmt.Errorf("wire: frame payload %d exceeds cap %d", len(w.scratch), MaxFramePayload)
	}
	var env [envelopeLen]byte
	env[0] = byte(t)
	binary.LittleEndian.PutUint32(env[1:], uint32(len(w.scratch)))
	binary.LittleEndian.PutUint32(env[5:], crc32.ChecksumIEEE(w.scratch))
	if _, err := w.w.Write(env[:]); err != nil {
		return err
	}
	_, err := w.w.Write(w.scratch)
	return err
}

func appendName(b []byte, kind, name string) ([]byte, error) {
	if len(name) > MaxNameLen {
		return b, fmt.Errorf("wire: %s %q longer than %d bytes", kind, name, MaxNameLen)
	}
	b = append(b, byte(len(name)))
	return append(b, name...), nil
}

// WriteData frames d. ClientID must be non-empty; an empty Tenant means
// the default tenant.
func (w *Writer) WriteData(d *Data) error {
	if d.ClientID == "" {
		return fmt.Errorf("wire: data frame needs a clientID")
	}
	b := w.scratch[:0]
	b = binary.LittleEndian.AppendUint64(b, d.Seq)
	var err error
	if b, err = appendName(b, "clientID", d.ClientID); err != nil {
		return err
	}
	if b, err = appendName(b, "tenant", d.Tenant); err != nil {
		return err
	}
	if b, err = AppendGroups(b, d.Groups); err != nil {
		return err
	}
	w.scratch = b
	return w.writeFrame(FrameData)
}

// AppendGroups appends the groups section of a DATA payload to b: a
// uvarint group count, then per group a u8-length-prefixed stream name,
// a uvarint update count and the updates as uvarint value and zigzag
// varint weight pairs. The section alone is also an HTTP /update body
// (GroupsContentType).
func AppendGroups(b []byte, groups []stream.Group) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(groups)))
	var err error
	for i := range groups {
		g := &groups[i]
		if g.Name == "" {
			return b, fmt.Errorf("wire: group %d has an empty stream name", i)
		}
		if b, err = appendName(b, "stream", g.Name); err != nil {
			return b, err
		}
		b = binary.AppendUvarint(b, uint64(len(g.Updates)))
		for _, u := range g.Updates {
			b = binary.AppendUvarint(b, u.Value)
			b = binary.AppendVarint(b, u.Weight)
		}
	}
	return b, nil
}

// WriteAck frames a.
func (w *Writer) WriteAck(a Ack) error {
	b := w.scratch[:0]
	b = binary.LittleEndian.AppendUint64(b, a.Seq)
	b = binary.LittleEndian.AppendUint64(b, uint64(a.Applied))
	var flags byte
	if a.Duplicate {
		flags |= 1
	}
	w.scratch = append(b, flags)
	return w.writeFrame(FrameAck)
}

// WriteReject frames r.
func (w *Writer) WriteReject(r Reject) error {
	b := w.scratch[:0]
	b = binary.LittleEndian.AppendUint64(b, r.Seq)
	w.scratch = binary.LittleEndian.AppendUint32(b, r.RetryAfter)
	return w.writeFrame(FrameReject)
}

// WriteError frames e, truncating the message to MaxNameLen bytes.
func (w *Writer) WriteError(e ErrorFrame) error {
	msg := e.Msg
	if len(msg) > MaxNameLen {
		msg = msg[:MaxNameLen]
	}
	b := w.scratch[:0]
	b = binary.LittleEndian.AppendUint64(b, e.Seq)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(msg)))
	w.scratch = append(b, msg...)
	return w.writeFrame(FrameError)
}

// Reader de-frames SKSP messages from r. The payload returned by Next
// is valid only until the following Next call. Not safe for concurrent
// use.
type Reader struct {
	r       *bufio.Reader
	payload []byte
}

// NewReader returns a Reader de-framing from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// ReadHeader consumes and validates the 8-byte connection header.
func (r *Reader) ReadHeader() error {
	var hdr [binfmt.HeaderLen]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		return err
	}
	h := binfmt.Open(hdr[:], Magic, Version)
	return h.Done()
}

// Next reads one frame and returns its type and CRC-verified payload.
// io.EOF is returned bare at a clean frame boundary; every other
// failure (truncation, oversized declaration, bad CRC, unknown type)
// is a wrapped error.
func (r *Reader) Next() (FrameType, []byte, error) {
	var env [envelopeLen]byte
	if _, err := io.ReadFull(r.r, env[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("wire: truncated frame envelope: %w", err)
	}
	t := FrameType(env[0])
	if t < FrameData || t > FrameError {
		return 0, nil, fmt.Errorf("wire: unknown frame type %d", env[0])
	}
	n := binary.LittleEndian.Uint32(env[1:])
	if n > MaxFramePayload {
		return 0, nil, fmt.Errorf("wire: declared payload %d exceeds cap %d", n, MaxFramePayload)
	}
	if cap(r.payload) < int(n) {
		r.payload = make([]byte, n)
	}
	r.payload = r.payload[:n]
	if _, err := io.ReadFull(r.r, r.payload); err != nil {
		return 0, nil, fmt.Errorf("wire: truncated payload (%d declared): %w", n, err)
	}
	if got, want := crc32.ChecksumIEEE(r.payload), binary.LittleEndian.Uint32(env[5:]); got != want {
		return 0, nil, fmt.Errorf("wire: payload CRC %08x, declared %08x", got, want)
	}
	return t, r.payload, nil
}

// intern returns b as a string, reusing a previously-built string for
// the same bytes so a steady-state decode loop does not allocate one
// string per frame for the (few, recurring) client/tenant/stream names.
func (d *Data) intern(b []byte) string {
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	if d.names == nil || len(d.names) >= 4096 {
		d.names = make(map[string]string)
	}
	s := string(b)
	d.names[s] = s
	return s
}

// DecodeData decodes a DATA payload into d, reusing d's buffers. It
// reads the group count before checking the clientID, so a payload that
// fails both checks reports the count's error.
func DecodeData(payload []byte, d *Data) error {
	r := binfmt.NewReader(Magic, payload)
	d.Seq = r.U64()
	id, tenant := r.Bytes(int(r.U8())), r.Bytes(int(r.U8()))
	groups := r.Uvarint()
	if err := r.Err(); err != nil {
		return err
	}
	if len(id) == 0 {
		return fmt.Errorf("wire: empty clientID")
	}
	d.ClientID, d.Tenant = d.intern(id), d.intern(tenant)
	return d.decodeGroups(r, groups)
}

// DecodeGroups decodes a groups section (AppendGroups) that fills body
// exactly into d.Groups, reusing d's buffers. It leaves d's ClientID,
// Seq and Tenant as they were: an HTTP body carries none of them.
func DecodeGroups(body []byte, d *Data) error {
	r := binfmt.NewReader(Magic, body)
	groups := r.Uvarint()
	if err := r.Err(); err != nil {
		return err
	}
	return d.decodeGroups(r, groups)
}

// decodeGroups decodes the rest of a groups section from r, whose count
// field (groups) is already read. The minimum wire sizes of the
// variable-count sections (2 bytes per update, 3 per group) bound the
// declared counts against the remaining bytes before anything is
// allocated or appended.
func (d *Data) decodeGroups(r binfmt.Reader, groups uint64) error {
	if groups > uint64(r.Len())/3+1 {
		return fmt.Errorf("wire: %d groups declared in %d remaining bytes", groups, r.Len())
	}
	d.Groups = d.Groups[:0]
	d.buf = d.buf[:0]
	// Updates are appended to the shared buffer, which may move as it
	// grows — record [start,end) offsets and slice at the end.
	type span struct {
		name       string
		start, end int
	}
	var stackSpans [8]span
	spans := stackSpans[:0]
	for gi := uint64(0); gi < groups; gi++ {
		nameB := r.Bytes(int(r.U8()))
		count := r.Uvarint()
		if err := r.Err(); err != nil {
			return err
		}
		if len(nameB) == 0 {
			return fmt.Errorf("wire: group %d has an empty stream name", gi)
		}
		if count > uint64(r.Len())/2+1 {
			return fmt.Errorf("wire: %d updates declared in %d remaining bytes", count, r.Len())
		}
		start := len(d.buf)
		rest := r.Bytes(r.Len())
		n, err := d.appendUpdates(rest, int(count))
		if err != nil {
			return err
		}
		r = binfmt.NewReader(Magic, rest[n:])
		spans = append(spans, span{d.intern(nameB), start, len(d.buf)})
	}
	if err := r.Done(); err != nil {
		return err
	}
	for _, s := range spans {
		d.Groups = append(d.Groups, stream.Group{Name: s.name, Updates: d.buf[s.start:s.end]})
	}
	return nil
}

// The update loop's errors, worded as binfmt.Reader words the same
// faults.
var (
	errBadValue  = errors.New(Magic + ": bad uvarint")
	errBadWeight = errors.New(Magic + ": bad varint")
)

// appendUpdates decodes count updates, each a uvarint value and a zigzag
// varint weight, from the front of b onto d.buf, and returns how many
// bytes they took. A byte below 0x80 is a whole varint, so both fields
// take a one-byte fast path before falling back to encoding/binary.
func (d *Data) appendUpdates(b []byte, count int) (int, error) {
	buf := slices.Grow(d.buf, count)
	i := 0
	for ; count > 0; count-- {
		var u stream.Update
		if i < len(b) && b[i] < 0x80 {
			u.Value = uint64(b[i])
			i++
		} else {
			v, n := binary.Uvarint(b[i:])
			if n <= 0 {
				return 0, errBadValue
			}
			u.Value, i = v, i+n
		}
		if i < len(b) && b[i] < 0x80 {
			u.Weight = int64(b[i]>>1) ^ -int64(b[i]&1)
			i++
		} else {
			w, n := binary.Varint(b[i:])
			if n <= 0 {
				return 0, errBadWeight
			}
			u.Weight, i = w, i+n
		}
		buf = append(buf, u)
	}
	d.buf = buf
	return i, nil
}

// DecodeAck decodes an ACK payload.
func DecodeAck(payload []byte) (Ack, error) {
	r := binfmt.NewReader(Magic, payload)
	a := Ack{Seq: r.U64(), Applied: r.I64(), Duplicate: r.U8()&1 != 0}
	return a, r.Done()
}

// DecodeReject decodes a REJECT payload.
func DecodeReject(payload []byte) (Reject, error) {
	r := binfmt.NewReader(Magic, payload)
	rj := Reject{Seq: r.U64(), RetryAfter: r.U32()}
	return rj, r.Done()
}

// DecodeError decodes an ERROR payload.
func DecodeError(payload []byte) (ErrorFrame, error) {
	r := binfmt.NewReader(Magic, payload)
	e := ErrorFrame{Seq: r.U64()}
	e.Msg = string(r.Bytes(int(r.U16())))
	return e, r.Done()
}
