package checkpoint

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func encodeBytes(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 10000)} {
		got, err := Decode(encodeBytes(t, payload))
		if err != nil {
			t.Fatalf("payload len %d: %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload len %d: round trip mismatch", len(payload))
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	good := encodeBytes(t, []byte("the quick brown fox"))
	cases := map[string][]byte{
		"empty":             {},
		"too short":         good[:10],
		"truncated payload": good[:len(good)-3],
		"trailing garbage":  append(append([]byte{}, good...), 0xFF),
	}
	badMagic := append([]byte{}, good...)
	badMagic[0] = 'X'
	cases["bad magic"] = badMagic
	badVersion := append([]byte{}, good...)
	badVersion[4] = 99
	cases["bad version"] = badVersion
	flipped := append([]byte{}, good...)
	flipped[headerSize+2] ^= 0x01
	cases["payload bit flip"] = flipped
	badCRC := append([]byte{}, good...)
	badCRC[16] ^= 0x01
	cases["header CRC flip"] = badCRC

	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: Decode accepted corrupt data", name)
		}
	}
}

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

func readAll(dst *string) func(io.Reader) error {
	return func(r io.Reader) error {
		b, err := io.ReadAll(r)
		*dst = string(b)
		return err
	}
}

func TestManagerSaveLoad(t *testing.T) {
	m, err := NewManager(filepath.Join(t.TempDir(), "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(readAll(new(string))); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: err = %v, want ErrNoCheckpoint", err)
	}
	if err := m.Save(writeString("state one")); err != nil {
		t.Fatal(err)
	}
	var got string
	path, err := m.Load(readAll(&got))
	if err != nil || got != "state one" {
		t.Fatalf("Load = %q, %v", got, err)
	}
	if path != m.CurrentPath() {
		t.Fatalf("restored %s, want current slot", path)
	}
}

func TestManagerRotationKeepsPreviousGood(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(writeString("one")); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(writeString("two")); err != nil {
		t.Fatal(err)
	}
	var got string
	if _, err := m.Load(readAll(&got)); err != nil || got != "two" {
		t.Fatalf("Load = %q, %v; want the newest checkpoint", got, err)
	}
	// The demoted checkpoint survives intact in the previous slot.
	data, err := os.ReadFile(m.PreviousPath())
	if err != nil {
		t.Fatal(err)
	}
	payload, err := Decode(data)
	if err != nil || string(payload) != "one" {
		t.Fatalf("previous slot holds %q, %v", payload, err)
	}
}

// TestManagerTornCurrentFallsBack is the torn-checkpoint contract: a
// truncated or corrupted current file is rejected and the previous good
// checkpoint is loaded instead.
func TestManagerTornCurrentFallsBack(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"bit flip":  func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b },
		"emptied":   func([]byte) []byte { return nil },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			m, err := NewManager(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Save(writeString("good")); err != nil {
				t.Fatal(err)
			}
			if err := m.Save(writeString("torn")); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(m.CurrentPath())
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(m.CurrentPath(), corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}
			var got string
			path, err := m.Load(readAll(&got))
			if err != nil || got != "good" {
				t.Fatalf("Load = %q, %v; want fallback to previous checkpoint", got, err)
			}
			if path != m.PreviousPath() {
				t.Fatalf("restored %s, want previous slot", path)
			}
		})
	}
}

func TestManagerBothCorruptErrors(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(writeString("one")); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(writeString("two")); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{m.CurrentPath(), m.PreviousPath()} {
		if err := os.WriteFile(p, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err = m.Load(readAll(new(string)))
	if err == nil || errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Load = %v; want a corruption error, not success or ErrNoCheckpoint", err)
	}
}

// TestManagerCrashBetweenRenames: a crash after demoting current but
// before publishing the new file leaves only the previous slot, which
// Load must pick up.
func TestManagerCrashBetweenRenames(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(writeString("survivor")); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(m.CurrentPath(), m.PreviousPath()); err != nil {
		t.Fatal(err)
	}
	var got string
	path, err := m.Load(readAll(&got))
	if err != nil || got != "survivor" {
		t.Fatalf("Load = %q, %v", got, err)
	}
	if path != m.PreviousPath() {
		t.Fatalf("restored %s, want previous slot", path)
	}
}

func TestManagerSaveWriteErrorLeavesStateIntact(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(writeString("good")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := m.Save(func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Save = %v, want the producer error", err)
	}
	var got string
	if _, err := m.Load(readAll(&got)); err != nil || got != "good" {
		t.Fatalf("Load after failed Save = %q, %v", got, err)
	}
	if _, err := os.Stat(filepath.Join(m.dir, tmpName)); !os.IsNotExist(err) {
		t.Fatal("failed Save left a temp file behind")
	}
}

func TestManagerRestoreErrorIsReported(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(writeString("state")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("restore boom")
	path, err := m.Load(func(io.Reader) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("Load = %v, want the restore error", err)
	}
	if path != m.CurrentPath() {
		t.Fatalf("failing restore attributed to %q", path)
	}
	if !strings.Contains(err.Error(), CurrentName) {
		t.Fatalf("error %q does not name the checkpoint file", err)
	}
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(""); err == nil {
		t.Fatal("expected error for empty directory")
	}
}

func TestRunPeriodicSaves(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var saves atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Run(ctx, time.Millisecond, func(w io.Writer) error {
			saves.Add(1)
			_, err := io.WriteString(w, "tick")
			return err
		}, nil)
	}()
	deadline := time.After(5 * time.Second)
	for saves.Load() < 3 {
		select {
		case <-deadline:
			t.Fatal("periodic saver did not tick")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	<-done
	var got string
	if _, err := m.Load(readAll(&got)); err != nil || got != "tick" {
		t.Fatalf("Load = %q, %v", got, err)
	}
}

func TestRunReportsSaveErrors(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	errs := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Run(ctx, time.Millisecond, func(io.Writer) error { return boom }, func(err error) {
			select {
			case errs <- err:
			default:
			}
		})
	}()
	select {
	case err := <-errs:
		if !errors.Is(err, boom) {
			t.Fatalf("reported %v, want boom", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run never reported the save error")
	}
	cancel()
	<-done
}

func TestRunZeroIntervalWaitsForCancel(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Run(ctx, 0, func(io.Writer) error { t.Error("unexpected save"); return nil }, nil)
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run with zero interval did not return on cancel")
	}
}
