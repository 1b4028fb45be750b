package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"skimsketch/internal/binfmt"
)

// Binary stream-file format ("SKS1"): a 16-byte header (4-byte magic,
// 4-byte version, 8-byte domain size) followed by 16-byte records of
// (value uint64, weight int64), all little-endian. The format is
// append-friendly: readers consume records until EOF.

const (
	magic      = "SKS1"
	version    = 1
	headerSize = 16
)

// ErrBadMagic reports a file that is not a stream file.
var ErrBadMagic = errors.New("stream: bad magic, not a SKS1 stream file")

// Writer writes a stream file.
type Writer struct {
	w   *bufio.Writer
	buf [16]byte
	n   int64
}

// NewWriter writes the header for a stream over [0, domain) and returns a
// Writer for its records.
func NewWriter(w io.Writer, domain uint64) (*Writer, error) {
	bw := bufio.NewWriter(w)
	hdr := binfmt.AppendHeader(make([]byte, 0, headerSize), magic, version)
	if _, err := bw.Write(binary.LittleEndian.AppendUint64(hdr, domain)); err != nil {
		return nil, fmt.Errorf("stream: writing header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Write appends one update record.
func (w *Writer) Write(u Update) error {
	binary.LittleEndian.PutUint64(w.buf[0:8], u.Value)
	binary.LittleEndian.PutUint64(w.buf[8:16], uint64(u.Weight))
	if _, err := w.w.Write(w.buf[:]); err != nil {
		return fmt.Errorf("stream: writing record %d: %w", w.n, err)
	}
	w.n++
	return nil
}

// Flush flushes buffered records to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader reads a stream file.
type Reader struct {
	r      *bufio.Reader
	domain uint64
	buf    [16]byte
	n      int64
}

// NewReader validates the header and returns a record reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("stream: reading header: %w", err)
	}
	h := binfmt.Open(hdr[:], magic, version)
	domain := h.U64()
	if err := h.Done(); errors.Is(err, binfmt.ErrBadMagic) {
		return nil, ErrBadMagic
	} else if err != nil {
		return nil, err
	}
	return &Reader{r: br, domain: domain}, nil
}

// Read returns the next update, or io.EOF when the stream is exhausted.
// A record whose value lies outside the header's domain [0, m) is an
// error, as it is for an online update (Validate): no skim over [0, m)
// could extract it.
func (r *Reader) Read() (Update, error) {
	if _, err := io.ReadFull(r.r, r.buf[:]); err != nil {
		if err == io.EOF {
			return Update{}, io.EOF
		}
		return Update{}, fmt.Errorf("stream: reading record %d: %w", r.n, err)
	}
	u := Update{
		Value:  binary.LittleEndian.Uint64(r.buf[0:8]),
		Weight: int64(binary.LittleEndian.Uint64(r.buf[8:16])),
	}
	if u.Value >= r.domain {
		return Update{}, fmt.Errorf("stream: record %d has value %d outside domain [0,%d)", r.n, u.Value, r.domain)
	}
	r.n++
	return u, nil
}

// WriteFile writes updates to path as a stream file.
func WriteFile(path string, domain uint64, updates []Update) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	w, err := NewWriter(f, domain)
	if err != nil {
		f.Close()
		return err
	}
	for _, u := range updates {
		if err := w.Write(u); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Pipe streams a file's records straight into sinks without materializing
// them, returning the header's domain and the number of records
// processed. It is the one SKS1 file reader of cmd/sketchtool (build and
// join).
func Pipe(path string, sinks ...Sink) (domain uint64, n int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("stream: %w", err)
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		return 0, 0, err
	}
	for {
		u, err := r.Read()
		if err == io.EOF {
			return r.domain, n, nil
		}
		if err != nil {
			return r.domain, n, err
		}
		for _, s := range sinks {
			s.Update(u.Value, u.Weight)
		}
		n++
	}
}
