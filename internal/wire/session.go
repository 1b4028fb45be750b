package wire

import (
	"errors"
	"fmt"
	"net"
	"time"
)

// Session is one synchronous SKSP client connection: each Send writes
// one DATA frame and waits for the server's reply to it. The caller
// chooses every frame's (clientID, seq), so a frame whose reply was
// lost, or that was REJECTed, is resent as is, on this session or on a
// new one, and the server's dedupe window answers a replay of an
// applied frame without re-applying it. Not safe for concurrent use.
type Session struct {
	nc      net.Conn
	w       *Writer
	rd      *Reader
	timeout time.Duration
}

// Dial connects to addr and exchanges connection headers. timeout
// bounds the dial, the header exchange and each later Send.
func Dial(addr string, timeout time.Duration) (*Session, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	s := &Session{nc: nc, w: NewWriter(nc), rd: NewReader(nc), timeout: timeout}
	nc.SetDeadline(time.Now().Add(timeout))
	if err := errors.Join(s.w.WriteHeader(), s.w.Flush()); err != nil {
		nc.Close()
		return nil, err
	}
	if err := s.rd.ReadHeader(); err != nil {
		nc.Close()
		return nil, fmt.Errorf("wire: header exchange: %w", err)
	}
	return s, nil
}

// Send writes d and reads the reply. An ACK is returned as is. A REJECT
// is returned as a Reject error and an ERROR as an ErrorFrame error, so
// errors.As tells a frame to resend after its hint from one that can
// never succeed; any other error is a broken connection.
func (s *Session) Send(d *Data) (Ack, error) {
	s.nc.SetDeadline(time.Now().Add(s.timeout))
	if err := errors.Join(s.w.WriteData(d), s.w.Flush()); err != nil {
		return Ack{}, err
	}
	ft, payload, err := s.rd.Next()
	if err != nil {
		return Ack{}, err
	}
	switch ft {
	case FrameAck:
		return DecodeAck(payload)
	case FrameReject:
		rej, err := DecodeReject(payload)
		if err == nil {
			err = rej
		}
		return Ack{}, err
	case FrameError:
		ef, err := DecodeError(payload)
		if err == nil {
			err = ef
		}
		return Ack{}, err
	default:
		return Ack{}, fmt.Errorf("wire: unexpected %d frame from server", ft)
	}
}

// Close closes the connection.
func (s *Session) Close() error { return s.nc.Close() }

// Error makes a REJECT a Send error that errors.As can recover.
func (r Reject) Error() string {
	return fmt.Sprintf("seq %d rejected, retry after %ds", r.Seq, r.RetryAfter)
}

// Error makes an ERROR a Send error that errors.As can recover.
func (e ErrorFrame) Error() string {
	return fmt.Sprintf("seq %d permanent error: %s", e.Seq, e.Msg)
}
