// Package checkpoint persists opaque engine state to disk crash-safely.
//
// A checkpoint file is a small binary envelope (magic "SKCP", version,
// payload length, CRC-32) around an arbitrary payload — in practice the
// engine's JSON snapshot, whose sketch blobs are the same binary formats
// used everywhere else (docs/FORMATS.md). Because every sketch in this
// repository is a linear projection of the frequency vector, a restored
// checkpoint plus a replayed stream tail is bit-identical to
// uninterrupted ingestion; the property tests in this package pin that
// down end to end.
//
// Durability discipline (the classic temp+fsync+rename dance):
//
//  1. the envelope is written to a temporary file in the checkpoint
//     directory and fsynced;
//  2. the previous current checkpoint (if any) is renamed to the
//     "previous" slot;
//  3. the temporary file is renamed over the "current" slot;
//  4. the directory is fsynced so both renames are durable.
//
// A crash at any point leaves at least one intact checkpoint on disk:
// Load verifies the envelope (magic, version, declared length, CRC)
// before handing the payload to the caller and falls back to the
// previous slot when the current one is missing, truncated, or corrupt.
package checkpoint

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"skimsketch/internal/binfmt"
)

// Envelope constants. All integers little-endian, matching every other
// binary format in this repository.
const (
	// Magic identifies a checkpoint envelope.
	Magic = "SKCP"
	// Version is the current envelope version.
	Version = 1
	// headerSize is magic(4) + version(4) + payload length(8) + CRC-32(4).
	headerSize = 4 + 4 + 8 + 4
)

// File names inside a checkpoint directory.
const (
	// CurrentName is the most recent complete checkpoint.
	CurrentName = "current.ckpt"
	// PreviousName is the checkpoint demoted by the last Save; Load falls
	// back to it when the current file is torn or corrupt.
	PreviousName = "previous.ckpt"
	// tmpName is the in-progress write; never read by Load.
	tmpName = "current.ckpt.tmp"
)

// ErrNoCheckpoint is returned by Load when the directory holds no
// checkpoint at all — a fresh start, not a failure.
var ErrNoCheckpoint = errors.New("checkpoint: no checkpoint found")

// Encode writes payload to w wrapped in the SKCP envelope.
func Encode(w io.Writer, payload []byte) error {
	hdr := binfmt.AppendHeader(make([]byte, 0, headerSize), Magic, Version)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(payload)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("checkpoint: write header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("checkpoint: write payload: %w", err)
	}
	return nil
}

// Decode validates the SKCP envelope in data and returns the payload.
// The declared length is checked against the actual size before anything
// is trusted, so truncated (torn) and padded files are both rejected, as
// is any payload whose CRC does not match.
func Decode(data []byte) ([]byte, error) {
	r := binfmt.Open(data, Magic, Version)
	declared, crc := r.U64(), r.U32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if got := uint64(r.Len()); declared != got {
		return nil, fmt.Errorf("checkpoint: declared payload length %d, file holds %d", declared, got)
	}
	payload := r.Bytes(r.Len())
	if got := crc32.ChecksumIEEE(payload); crc != got {
		return nil, fmt.Errorf("checkpoint: CRC mismatch: header %08x, payload %08x", crc, got)
	}
	return payload, nil
}

// Manager owns one checkpoint directory: Save rotates crash-safe
// checkpoints into it, Load restores the newest intact one. Save and
// Load are serialized internally, so a periodic saver and a final
// shutdown save can share one Manager.
type Manager struct {
	mu  sync.Mutex
	dir string
}

// NewManager creates the checkpoint directory (if needed) and returns a
// Manager over it.
func NewManager(dir string) (*Manager, error) {
	if dir == "" {
		return nil, errors.New("checkpoint: directory must be non-empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Manager{dir: dir}, nil
}

// CurrentPath returns the path of the current checkpoint slot.
func (m *Manager) CurrentPath() string { return filepath.Join(m.dir, CurrentName) }

// PreviousPath returns the path of the previous checkpoint slot.
func (m *Manager) PreviousPath() string { return filepath.Join(m.dir, PreviousName) }

// Save captures one checkpoint: write produces the payload (sketchd
// passes Engine.Snapshot), which is buffered, wrapped in the SKCP
// envelope, written to a temporary file, fsynced, and rotated into
// place. The prior current checkpoint survives in the previous slot
// until the next Save.
func (m *Manager) Save(write func(io.Writer) error) error {
	m.mu.Lock()
	defer m.mu.Unlock()

	var payload bytes.Buffer
	if err := write(&payload); err != nil {
		return fmt.Errorf("checkpoint: produce payload: %w", err)
	}

	tmp := filepath.Join(m.dir, tmpName)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := Encode(f, payload.Bytes()); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: close: %w", err)
	}

	cur, prev := m.CurrentPath(), m.PreviousPath()
	if _, err := os.Stat(cur); err == nil {
		if err := os.Rename(cur, prev); err != nil {
			return fmt.Errorf("checkpoint: rotate previous: %w", err)
		}
	}
	if err := os.Rename(tmp, cur); err != nil {
		return fmt.Errorf("checkpoint: publish: %w", err)
	}
	syncDir(m.dir) // make both renames durable; best-effort on exotic filesystems
	return nil
}

// Load restores the newest intact checkpoint: the current slot first,
// then — if that file is missing, truncated, or fails CRC validation —
// the previous slot. It returns the path actually restored. If neither
// slot exists it returns ErrNoCheckpoint. The restore callback is only
// invoked with a payload whose envelope validated, and only once: if
// restore itself fails, its error is returned without trying the other
// slot (the callback may have partially applied the state).
func (m *Manager) Load(restore func(io.Reader) error) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	var firstErr error
	exists := false
	for _, path := range []string{m.CurrentPath(), m.PreviousPath()} {
		data, err := os.ReadFile(path)
		if err != nil {
			if !os.IsNotExist(err) && firstErr == nil {
				firstErr = err
			}
			continue
		}
		exists = true
		payload, err := Decode(data)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", path, err)
			}
			continue
		}
		if err := restore(bytes.NewReader(payload)); err != nil {
			return path, fmt.Errorf("checkpoint: restore %s: %w", path, err)
		}
		return path, nil
	}
	if !exists {
		return "", ErrNoCheckpoint
	}
	return "", fmt.Errorf("checkpoint: no intact checkpoint: %w", firstErr)
}

// Run saves a checkpoint every interval until ctx is canceled; the last
// tick is not awaited, so callers that want a final checkpoint on
// shutdown should Save once more after Run returns. Save errors are
// reported through report (which may be nil) and do not stop the loop —
// a transiently full disk should not kill periodic checkpointing.
func (m *Manager) Run(ctx context.Context, interval time.Duration, write func(io.Writer) error, report func(error)) {
	if interval <= 0 {
		<-ctx.Done()
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := m.Save(write); err != nil && report != nil {
				report(err)
			}
		}
	}
}

// syncDir fsyncs a directory so renames inside it are durable. Errors
// are ignored: some filesystems (and all of Windows) reject directory
// fsync, and the fallback behavior — the rename becoming durable a
// little later — is exactly the pre-fsync status quo.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
