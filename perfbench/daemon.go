package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"analogflow/internal/solve"
)

// clockTicks is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// daemon is one analogflowd process on a loopback port, driven by a single
// keep-alive connection.
type daemon struct {
	cmd      *exec.Cmd
	base     string
	client   *http.Client
	stdoutOK chan struct{} // closed once the daemon's stdout reaches EOF
	buf      bytes.Buffer  // response body of the last request
}

// startDaemon launches the binary on an ephemeral loopback port and waits
// until /v1/readyz answers 200.
func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, even if the benchmark is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d := &daemon{cmd: cmd, stdoutOK: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.stdoutOK)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			// "analogflowd: listening on 127.0.0.1:PORT (solvers: ...)"
			if f := strings.Fields(sc.Text()); len(f) >= 4 && f[1] == "listening" {
				select {
				case addr <- f[3]:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.stdoutOK:
		d.kill()
		return nil, fmt.Errorf("daemon exited before listening")
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("daemon did not announce its address within 30s")
	}
	d.client = &http.Client{Transport: &http.Transport{
		DisableCompression:  true,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
	}}
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, _, _, err := d.do(http.MethodGet, "/v1/readyz", nil)
		if err == nil && status == http.StatusOK {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("daemon not ready within 30s (status %d, err %v)", status, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// do sends one request and reads the whole response.  The latency runs from
// the send to the last byte read.  The returned body aliases the daemon's
// buffer and is valid until the next call.
func (d *daemon) do(method, path string, body []byte) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	d.buf.Reset()
	start := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	_, err = d.buf.ReadFrom(resp.Body)
	latency := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, latency, err
	}
	return resp.StatusCode, d.buf.Bytes(), latency, nil
}

// post sends a JSON body.
func (d *daemon) post(path string, v any) (int, []byte, time.Duration, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return 0, nil, 0, err
	}
	return d.do(http.MethodPost, path, b)
}

// counters reads the service counters from /v1/stats.
func (d *daemon) counters() (solve.Stats, error) {
	status, body, _, err := d.do(http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return solve.Stats{}, err
	}
	if status != http.StatusOK {
		return solve.Stats{}, fmt.Errorf("/v1/stats: status %d", status)
	}
	var v struct {
		Stats solve.Stats `json:"stats"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return solve.Stats{}, fmt.Errorf("/v1/stats: %w", err)
	}
	return v.Stats, nil
}

// procTimes is the daemon's CPU time and minor page faults so far, all
// threads.
type procTimes struct {
	user, sys time.Duration
	faults    int64
}

func (d *daemon) procTimes() (procTimes, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return procTimes{}, err
	}
	// The command name may hold spaces; fields restart after its ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return procTimes{}, fmt.Errorf("short /proc stat line")
	}
	// minflt, utime and stime are fields 10, 14 and 15 of the line: 8, 12
	// and 13 after ')'.
	var v [3]int64
	for i, field := range []int{7, 11, 12} {
		if v[i], err = strconv.ParseInt(f[field], 10, 64); err != nil {
			return procTimes{}, fmt.Errorf("parse /proc stat: %w", err)
		}
	}
	return procTimes{
		user:   time.Duration(v[1]) * time.Second / clockTicks,
		sys:    time.Duration(v[2]) * time.Second / clockTicks,
		faults: v[0],
	}, nil
}

// peakRSS is the daemon's VmHWM in MiB.
func (d *daemon) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain takes longer than 20 s.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.stdoutOK:
	case <-time.After(20 * time.Second):
		d.kill()
		return fmt.Errorf("daemon did not exit within 20s of SIGTERM")
	}
	return d.cmd.Wait()
}

// kill ends the daemon at once and reaps it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.stdoutOK
	_ = d.cmd.Wait()
}
