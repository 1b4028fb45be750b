package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sketchdFlags are passed to every sketchd the benchmark starts: the
// sketch shape and seed are part of the benchmark, not of the workload.
var sketchdFlags = []string{"-addr", "127.0.0.1:0", "-seed", "42", "-tables", "7", "-buckets", "2048"}

// server is one running sketchd process.
type server struct {
	cmd     *exec.Cmd
	url     string // HTTP base URL
	sksp    string // SKSP listen address, when the process has one
	drained chan struct{}
}

// startServer launches sketchd with args and waits until it has printed
// its listen addresses (and its SKSP address when wantSKSP).
func startServer(ctx context.Context, bin string, args []string, wantSKSP bool) (*server, error) {
	cmd := exec.Command(bin, append(append([]string{}, sketchdFlags...), args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stderr = os.Stderr
	// A driver killed mid-run must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sketchd: %w", err)
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	addrs := make(chan [2]string, 4)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if kind, addr, ok := parseListenLine(sc.Text()); ok {
				addrs <- [2]string{kind, addr}
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	for s.url == "" || (wantSKSP && s.sksp == "") {
		select {
		case a := <-addrs:
			if a[0] == "sksp" {
				s.sksp = a[1]
			} else {
				s.url = "http://" + a[1]
			}
		case <-s.drained:
			s.stop()
			return nil, errors.New("sketchd exited before listening")
		case <-timeout.C:
			s.stop()
			return nil, errors.New("sketchd did not report its listen address within 10s")
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		}
	}
	return s, nil
}

// parseListenLine recognizes sketchd's boot banners, such as
// "sketchd listening on 127.0.0.1:4711 (...)" and
// "sketchd sksp listener on 127.0.0.1:4712".
func parseListenLine(line string) (kind, addr string, ok bool) {
	for _, marker := range []string{" listening on ", " listener on ", " forwarder on "} {
		if _, rest, found := strings.Cut(line, marker); found {
			addr, _, _ = strings.Cut(rest, " ")
			kind = "http"
			if strings.Contains(line, "sksp") {
				kind = "sksp"
			}
			return kind, addr, addr != ""
		}
	}
	return "", "", false
}

// stop kills the process and waits until it and its output reader have
// ended.
func (s *server) stop() {
	_ = s.cmd.Process.Kill()
	<-s.drained
	_ = s.cmd.Wait()
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(ctx context.Context, c *http.Client, url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := c.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not ready within 10s", url)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux ABI Go supports.
const clockTick = 100

// cpuTime reads a process's user plus system CPU time.
func cpuTime(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(string(data), ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse /proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * (time.Second / clockTick), nil
}

// driverCPU is this process's user plus system CPU time.
func driverCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
