package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// planedReps is how many times a run launches planed. Each launch
	// gives one set-up sample and one measurement; the run reports
	// medians over them, which keeps one slow launch on a shared host
	// from moving the result.
	planedReps = 5
	// setupOnly extra launches per run only time set-up, so setup_s is
	// a median of planedReps+setupOnly launches.
	setupOnly    = 4
	drainTimeout = 20 * time.Second
	// parseEvery: planed events decoded in full as floor.WireUpdate, one
	// diff in this many (every snapshot always); byte parity with the
	// replica covers the rest.
	parseEvery = 32
)

// daemon is one planed process under test, listening on loopback.
type daemon struct {
	cmd      *exec.Cmd
	base     string // http://127.0.0.1:port
	launched time.Time

	serving   chan struct{} // closed once the "serving" log line is read
	servingAt time.Time     // valid after serving is closed
	logDone   chan struct{} // closed once stderr reaches EOF

	mu   sync.Mutex
	logs []string // guarded by mu
}

// launchPlaned starts planed with args on a free loopback port.
func launchPlaned(bin string, args []string) (*daemon, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(append([]string(nil), args...), "-listen", addr)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, serving: make(chan struct{}), logDone: make(chan struct{})}
	d.launched = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start planed: %w", err)
	}
	go d.readLogs(stderr)
	return d, nil
}

func freeLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func (d *daemon) readLogs(r io.Reader) {
	defer close(d.logDone)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, "planed: serving ") && d.servingAt.IsZero() {
			d.servingAt = time.Now()
			close(d.serving)
		}
		d.mu.Lock()
		d.logs = append(d.logs, line)
		d.mu.Unlock()
	}
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := len(d.logs); n > 5 {
		return strings.Join(d.logs[n-5:], " | ")
	}
	return strings.Join(d.logs, " | ")
}

// floorURL is the URL of one tenant resource.
func (d *daemon) floorURL(id, rest string) string {
	return d.base + "/floors/" + url.PathEscape(id) + rest
}

// waitReady polls until every listed floor answers /snapshot with 200
// and returns the time since launch — the daemon's set-up time.
func (d *daemon) waitReady(ctx context.Context, ids []string) (time.Duration, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	for _, id := range ids {
		for {
			if err := ctx.Err(); err != nil {
				return 0, fmt.Errorf("floor %s never became ready: %w (%s)", id, err, d.logTail())
			}
			resp, err := client.Get(d.floorURL(id, "/snapshot"))
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			select {
			case <-d.logDone:
				return 0, fmt.Errorf("planed exited during set-up: %s", d.logTail())
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	return time.Since(d.launched), nil
}

// listing returns each hosted floor's link count from GET /floors.
func (d *daemon) listing() (map[string]int, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	resp, err := client.Get(d.base + "/floors")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var rows []struct {
		ID    string `json:"id"`
		Links int    `json:"links"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		return nil, fmt.Errorf("floor listing: %w", err)
	}
	out := make(map[string]int, len(rows))
	for _, r := range rows {
		out[r.ID] = r.Links
	}
	return out, nil
}

// cpu reports the process's CPU time so far (user + system) from
// /proc, at the kernel's clock-tick resolution.
func (d *daemon) cpu() (time.Duration, error) {
	return procCPU(d.cmd.Process.Pid)
}

// clkTck is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// Linux fixes it at 100 for user space.
const clkTck = 100

func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	// Fields after the command name start at field 3 (state); utime
	// and stime are fields 14 and 15.
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// exitReport is how a process under test ended.
type exitReport struct {
	PeakRSSMB float64
	CPU       time.Duration
}

// stop sends SIGTERM and waits for the drain. It fails unless planed
// exits 0 having logged its clean drain.
func (d *daemon) stop(timeout time.Duration) (exitReport, error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var werr error
	select {
	case werr = <-done:
	case <-time.After(timeout):
		_ = d.cmd.Process.Kill()
		<-done
		return exitReport{}, fmt.Errorf("planed did not drain within %s", timeout)
	}
	<-d.logDone
	rep := processReport(d.cmd.ProcessState)
	if werr != nil {
		return rep, fmt.Errorf("planed exit: %v (%s)", werr, d.logTail())
	}
	if !strings.Contains(d.logTail(), "drained cleanly") {
		return rep, fmt.Errorf("planed exited 0 without a clean drain (%s)", d.logTail())
	}
	return rep, nil
}

// kill ends a daemon on an error path.
func (d *daemon) kill() {
	if d.cmd.ProcessState == nil {
		_ = d.cmd.Process.Kill()
		_ = d.cmd.Wait()
	}
}

func processReport(ps *os.ProcessState) exitReport {
	rep := exitReport{CPU: ps.UserTime() + ps.SystemTime()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rep.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rep
}

// newClient returns an HTTP client holding at most one loopback
// connection; the harness runs at most two clients at once, so it never
// opens more connections than the box has cores.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		Proxy:               nil,
	}}
}

// startPlaned launches planed, times its set-up — from launch until
// every floor serves /snapshot — and reads its floor listing.
func (r *runner) startPlaned(spec fleetSpec) (*daemon, float64, map[string]int, error) {
	ctx, cancel := r.ctx()
	defer cancel()
	d, err := launchPlaned(filepath.Join(r.bin, "planed"), spec.args())
	r.tally.op(err)
	if err != nil {
		return nil, 0, nil, err
	}
	setup, err := d.waitReady(ctx, spec.floors)
	if err == nil {
		// Lag is anchored on the serving line: make sure it was read.
		select {
		case <-d.serving:
		case <-ctx.Done():
			err = fmt.Errorf("planed never logged that it was serving: %s", d.logTail())
		}
	}
	r.tally.op(err)
	if err != nil {
		d.kill()
		return nil, 0, nil, err
	}
	links, err := d.listing()
	r.tally.op(err)
	if err != nil {
		d.kill()
		return nil, 0, nil, err
	}
	return d, setup.Seconds(), links, nil
}

// openStreams subscribes to each streamed tenant over one loopback
// connection apiece and starts a reader per stream. progress holds each
// stream's latest at_s (float64 bits).
func (r *runner) openStreams(ctx context.Context, d *daemon, spec fleetSpec, links map[string]int) ([]*streamCheck, []*atomic.Uint64, *sync.WaitGroup, error) {
	var wg sync.WaitGroup
	var checks []*streamCheck
	var progress []*atomic.Uint64
	for _, id := range spec.streamed {
		client := newClient()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.floorURL(id, "/stream"), nil)
		if err != nil {
			return nil, nil, nil, err
		}
		resp, err := client.Do(req)
		if err == nil && resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			err = fmt.Errorf("stream %s: status %s", id, resp.Status)
		}
		r.tally.op(err)
		if err != nil {
			return nil, nil, nil, err
		}
		sc := &streamCheck{tenant: id, links: links[id], start: virtualStart, cadence: cadence}
		p := new(atomic.Uint64)
		checks, progress = append(checks, sc), append(progress, p)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer resp.Body.Close()
			rd := newSSEReader(resp.Body)
			for {
				ev, err := rd.next()
				if err != nil {
					if !sc.ended {
						r.tally.op(fmt.Errorf("%s: stream broke before its end event: %v", sc.tenant, err))
					}
					return
				}
				r.tally.op(sc.observe(ev, r.since(), r.hashSeed))
				if n := len(sc.events); n > 0 {
					p.Store(math.Float64bits(sc.events[n-1].AtS))
				}
				if sc.ended {
					_, _ = io.Copy(io.Discard, resp.Body)
					return
				}
			}
		}()
	}
	return checks, progress, &wg, nil
}

// waitAll blocks until every stream has reached virtual instant at,
// returning false when the run's deadline passes first.
func (r *runner) waitAll(progress []*atomic.Uint64, at float64) bool {
	for {
		ok := true
		for _, p := range progress {
			if math.Float64frombits(p.Load()) < at {
				ok = false
			}
		}
		if ok {
			return true
		}
		if r.remaining() < 30*time.Second {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// setupSamples launches planed n times only to time its set-up, and
// stops each launch with the same SIGTERM drain check.
func (r *runner) setupSamples(spec fleetSpec, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		d, setup, _, err := r.startPlaned(spec)
		if err != nil {
			return nil, err
		}
		_, err = d.stop(drainTimeout)
		r.tally.op(err)
		out = append(out, setup)
	}
	return out, nil
}
