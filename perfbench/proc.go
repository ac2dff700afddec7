package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is a server child process.
type proc struct {
	cmd  *exec.Cmd
	log  string
	done chan struct{}
	base string // http://127.0.0.1:port
}

var (
	procsMu sync.Mutex
	procs   []*proc
)

// startProc execs bin with args, its output appended to logPath, and
// registers it so stopAll can reap it.
func startProc(bin string, args []string, logPath string) (*proc, error) {
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// A server must not outlive the benchmark, even one that dies abruptly.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	p := &proc{cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		lf.Close()
		close(p.done)
	}()
	procsMu.Lock()
	procs = append(procs, p)
	procsMu.Unlock()
	return p, nil
}

// exited reports whether the process has ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// kill sends sig and waits for the process to end, escalating to SIGKILL
// after five seconds.
func (p *proc) kill(sig syscall.Signal) {
	if p.exited() {
		return
	}
	_ = p.cmd.Process.Signal(sig)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// stopAll kills every child still running and waits for each.
func stopAll() {
	procsMu.Lock()
	ps := procs
	procs = nil
	procsMu.Unlock()
	for _, p := range ps {
		p.kill(syscall.SIGKILL)
	}
}

// logTail returns the end of the process's log, for error messages.
func (p *proc) logTail() string {
	b, _ := os.ReadFile(p.log)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// launch starts a server on a fresh port and waits until /healthz answers
// 200, returning the time from exec to that answer.
func launch(bin string, args []string, logPath string) (*proc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	p, err := startProc(bin, append(append([]string(nil), args...), "-addr", addr), logPath)
	if err != nil {
		return nil, 0, err
	}
	p.base = "http://" + addr
	d, err := waitHealthy(p, start, 120*time.Second)
	if err != nil {
		p.kill(syscall.SIGKILL)
		return nil, 0, err
	}
	return p, d, nil
}

// probeClient polls health and stats; it never shares connections with the
// measured clients.
var probeClient = &http.Client{Timeout: 5 * time.Second}

func waitHealthy(p *proc, start time.Time, limit time.Duration) (time.Duration, error) {
	for time.Since(start) < limit {
		if p.exited() {
			return 0, fmt.Errorf("server exited during start-up:\n%s", p.logTail())
		}
		resp, err := probeClient.Get(p.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(start), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return 0, fmt.Errorf("server not healthy after %v:\n%s", limit, p.logTail())
}

// rssMB is the resident set of a process in MB (10^6 bytes).
func rssMB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}

// rssSampler reads a process's resident memory every rssEvery while a
// load runs, so rss_mb is the peak over the whole load rather than one
// reading taken at whatever point the garbage collector or a compaction had
// reached. Every load repeats its allocation cycles (garbage collections,
// compactions) many times or at least twice, so the peak repeats from run
// to run where a single reading, or the median, depends on the phase.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
}

const rssEvery = 200 * time.Millisecond

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if mb, err := rssMB(pid); err == nil {
				s.mb = append(s.mb, mb)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// peak stops the sampler and returns its highest reading.
func (s *rssSampler) peak() float64 {
	close(s.stop)
	<-s.done
	return slices.Max(s.mb)
}

// serverStats is the part of GET /stats the benchmark reads.
type serverStats struct {
	LivePolygons     int    `json:"livePolygons"`
	DeltaPolygons    int    `json:"deltaPolygons"`
	Tombstones       int    `json:"tombstones"`
	Compactions      uint64 `json:"compactions"`
	WALSeq           uint64 `json:"walSeq"`
	RecoveredRecords int    `json:"recoveredRecords"`
	ReadOnly         bool   `json:"readOnly"`
	Replication      *struct {
		AppliedSeq uint64 `json:"appliedSeq"`
	} `json:"replication"`
}

func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := probeClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

func stats(p *proc) (serverStats, error) {
	var st serverStats
	err := getJSON(context.Background(), p.base+"/stats", &st)
	return st, err
}
