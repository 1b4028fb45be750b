package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"skimsketch/internal/wire"
)

// clientID names the benchmark to sketchd's dedupe window, on SKSP
// frames and in Idempotency-Key headers. Every request of a run has its
// own seq, so nothing is ever deduplicated unless it was retried.
const clientID = "skimbench"

// retryBackoff is how long a rejected request waits before it is sent
// again. sketchd hints one second, which would measure the hint rather
// than the server; the wait is charged to the request's latency.
const retryBackoff = 2 * time.Millisecond

// counters tally request outcomes across a run.
type counters struct {
	attempted atomic.Int64 // requests issued, not counting retries
	failed    atomic.Int64 // requests that ended in an error or timeout
	rejected  atomic.Int64 // 429 or REJECT replies, each retried
}

// skspConn is a pipelined SKSP client connection: callers of send each
// wait for their own reply, so the number of concurrent callers is the
// number of frames in flight.
type skspConn struct {
	nc  net.Conn
	wmu sync.Mutex
	w   *wire.Writer

	mu      sync.Mutex
	waiting map[uint64]chan skspReply
	err     error // why the read loop ended
	done    chan struct{}
}

type skspReply struct {
	typ     wire.FrameType
	applied int64
	msg     string
}

func dialSKSP(ctx context.Context, addr string) (*skspConn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &skspConn{nc: nc, w: wire.NewWriter(nc), waiting: make(map[uint64]chan skspReply), done: make(chan struct{})}
	rd := wire.NewReader(nc)
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	if err := c.w.WriteHeader(); err == nil {
		err = c.w.Flush()
	}
	if err == nil {
		err = rd.ReadHeader()
	}
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("sksp handshake with %s: %w", addr, err)
	}
	_ = nc.SetDeadline(time.Time{})
	go c.readLoop(rd)
	return c, nil
}

func (c *skspConn) readLoop(rd *wire.Reader) {
	defer close(c.done)
	err := func() error {
		for {
			ft, payload, err := rd.Next()
			if err != nil {
				return err
			}
			var seq uint64
			rep := skspReply{typ: ft}
			switch ft {
			case wire.FrameAck:
				a, err := wire.DecodeAck(payload)
				if err != nil {
					return err
				}
				seq, rep.applied = a.Seq, a.Applied
			case wire.FrameReject:
				r, err := wire.DecodeReject(payload)
				if err != nil {
					return err
				}
				seq = r.Seq
			case wire.FrameError:
				e, err := wire.DecodeError(payload)
				if err != nil {
					return err
				}
				seq, rep.msg = e.Seq, e.Msg
			default:
				return fmt.Errorf("unexpected frame type %d", ft)
			}
			c.mu.Lock()
			ch := c.waiting[seq]
			delete(c.waiting, seq)
			c.mu.Unlock()
			if ch != nil {
				ch <- rep
			}
		}
	}()
	c.mu.Lock()
	c.err = err
	c.mu.Unlock()
}

// send writes one DATA frame and waits for its reply.
func (c *skspConn) send(ctx context.Context, d *wire.Data) (skspReply, error) {
	ch := make(chan skspReply, 1)
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return skspReply{}, c.err
	}
	c.waiting[d.Seq] = ch
	c.mu.Unlock()
	c.wmu.Lock()
	err := c.w.WriteData(d)
	if err == nil {
		err = c.w.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		return skspReply{}, fmt.Errorf("sksp write: %w", err)
	}
	select {
	case rep := <-ch:
		return rep, nil
	case <-c.done:
		return skspReply{}, fmt.Errorf("sksp connection closed: %w", c.err)
	case <-ctx.Done():
		return skspReply{}, ctx.Err()
	}
}

// ingest sends batch b as frame seq, resending it after each REJECT,
// and returns the number of updates the server acknowledged.
func (c *skspConn) ingest(ctx context.Context, seq int64, b *batch, cnt *counters) (int, error) {
	d := wire.Data{ClientID: clientID, Seq: uint64(seq), Tenant: b.tenant, Groups: b.groups}
	for {
		rep, err := c.send(ctx, &d)
		if err != nil {
			return 0, err
		}
		switch rep.typ {
		case wire.FrameAck:
			if rep.applied != int64(b.size()) || rep.applied == 0 {
				return 0, fmt.Errorf("frame %d: ack for %d updates, sent %d", seq, rep.applied, b.size())
			}
			return int(rep.applied), nil
		case wire.FrameReject:
			cnt.rejected.Add(1)
			if err := sleepCtx(ctx, retryBackoff); err != nil {
				return 0, err
			}
		default:
			return 0, fmt.Errorf("frame %d: %s", seq, rep.msg)
		}
	}
}

func (c *skspConn) close() {
	c.nc.Close()
	<-c.done
}

// api is an HTTP client of one sketchd (or merger) base URL.
type api struct {
	c   *http.Client
	url string
}

// newHTTPClient returns a keep-alive client holding at most conns
// connections to any one server.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// tenantPath prefixes an endpoint with the tenant's scope.
func tenantPath(tenant, endpoint string) string {
	if tenant == "" {
		return endpoint
	}
	return "/t/" + tenant + endpoint
}

// do issues one request and returns the status and body.
func (a api) do(ctx context.Context, method, path string, body []byte, hdr http.Header) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, a.url+path, rd)
	if err != nil {
		return 0, nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := a.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	return resp.StatusCode, out, nil
}

// getJSON fetches path and decodes a 200 response into v.
func (a api) getJSON(ctx context.Context, path string, v any) error {
	status, body, err := a.do(ctx, http.MethodGet, path, nil, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// post sends a JSON body and requires a 2xx reply.
func (a api) post(ctx context.Context, path string, body string) error {
	status, out, err := a.do(ctx, http.MethodPost, path, []byte(body), http.Header{"Content-Type": {"application/json"}})
	if err != nil {
		return err
	}
	if status/100 != 2 {
		return fmt.Errorf("POST %s: status %d: %s", path, status, bytes.TrimSpace(out))
	}
	return nil
}

// ingest posts batch b to /update under the idempotency key of seq,
// resending it after each 429, and returns the number of updates the
// server acknowledged.
func (a api) ingest(ctx context.Context, seq int64, b *batch, cnt *counters) (int, error) {
	hdr := http.Header{
		"Content-Type":    {"application/json"},
		"Idempotency-Key": {clientID + ":" + strconv.FormatInt(seq, 10)},
	}
	path := tenantPath(b.tenant, "/update")
	for {
		status, body, err := a.do(ctx, http.MethodPost, path, b.body, hdr)
		if err != nil {
			return 0, err
		}
		switch status {
		case http.StatusOK:
			var r struct {
				Applied      int  `json:"applied"`
				Deduplicated bool `json:"deduplicated"`
			}
			if err := json.Unmarshal(body, &r); err != nil {
				return 0, fmt.Errorf("update %d: %w", seq, err)
			}
			if r.Applied != b.size() || r.Deduplicated {
				return 0, fmt.Errorf("update %d: applied %d (deduplicated %v), sent %d", seq, r.Applied, r.Deduplicated, b.size())
			}
			return r.Applied, nil
		case http.StatusTooManyRequests:
			cnt.rejected.Add(1)
			if err := sleepCtx(ctx, retryBackoff); err != nil {
				return 0, err
			}
		default:
			return 0, fmt.Errorf("update %d: status %d: %s", seq, status, bytes.TrimSpace(body))
		}
	}
}

// answer is the part of an /answer reply the benchmark checks.
type answer struct {
	Estimate int64 `json:"estimate"`
	Shards   *struct {
		Answered int `json:"answered"`
		Of       int `json:"of"`
	} `json:"shards"`
}

func (a api) answer(ctx context.Context, tenant string) (answer, error) {
	var r answer
	err := a.getJSON(ctx, tenantPath(tenant, "/answer?query=q"), &r)
	return r, err
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
