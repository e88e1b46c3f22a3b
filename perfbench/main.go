// Command perfbench is the repository's end-to-end benchmark. It drives
// the real planed and experiments binaries, built from the tree under
// test, through three named workloads over loopback, checks their
// outputs, and prints every end-to-end metric; with -trace 1 it instead
// runs an in-process replica of the same fleet with spans around the
// public calls each tick passes through and prints the per-layer
// breakdown. run.sh builds the binaries and then runs this command:
//
//	bash perfbench/run.sh --workload office-traffic --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. A fuller record of each run (run
// metadata and the workload-specific figures behind the metrics) is
// written under .bench_build/results.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/maphash"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// runDeadline keeps every run inside the 180 s a run may take.
const runDeadline = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted operations and failed ones: requests, stream
// events, process launches and drains, campaign jobs, and every output
// check.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	shown     int
}

func (t *tally) op(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.shown < 20 {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
			t.shown++
		}
	}
}

// runner carries one run's settings and accounting.
type runner struct {
	workload string
	seed     int64
	seconds  int
	bin      string
	base     time.Time
	deadline time.Time
	hashSeed maphash.Seed
	tally    tally
	// report holds the workload's figures beyond the gated metrics,
	// with their sample counts; it goes to the results record.
	report map[string]any
}

// since is the run's clock: every arrival and due instant is measured
// on it.
func (r *runner) since() time.Duration { return time.Since(r.base) }

// remaining is the time left before the run must wrap up.
func (r *runner) remaining() time.Duration { return time.Until(r.deadline) }

func (r *runner) ctx() (context.Context, context.CancelFunc) {
	return context.WithDeadline(context.Background(), r.deadline)
}

func (r *runner) note(k string, v any) { r.report[k] = v }

// workload is one named benchmark workload: a function producing its
// end-to-end metrics and one producing its per-layer metrics.
type workload struct {
	e2e    func(*runner) (map[string]float64, error)
	layers func(*runner) (map[string]float64, error)
}

var workloads = map[string]workload{
	"office-traffic": {e2e: (*runner).officeE2E, layers: (*runner).officeLayers},
	"fleet-readers":  {e2e: (*runner).readersE2E, layers: (*runner).readersLayers},
	"campaign":       {e2e: (*runner).campaignE2E, layers: (*runner).campaignLayers},
}

// e2eUnits lists the end-to-end metrics every workload reports.
var e2eUnits = map[string]string{
	"setup_s":     "s",
	"work_s":      "s",
	"op_p50_ms":   "ms",
	"op_p90_ms":   "ms",
	"peak_rss_mb": "MB",
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: office-traffic, fleet-readers or campaign")
		seed    = flag.Int64("seed", 1, "workload seed (planed/experiments -seed and the gen: floor seed)")
		seconds = flag.Int("seconds", 10, "measurement length; sets the fixed work of each workload")
		trace   = flag.Int("trace", 0, "1 = traced in-process replica, printing per-layer metrics")
		bin     = flag.String("bin", ".bench_build/bin", "directory holding the planed and experiments binaries")
		results = flag.String("results", ".bench_build/results", "directory for the per-run records")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload office-traffic|fleet-readers|campaign, -seconds >= 1, -trace 0|1")
		return 2
	}
	for _, b := range []string{"planed", "experiments"} {
		if _, err := os.Stat(filepath.Join(*bin, b)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
	}
	r := &runner{workload: *name, seed: *seed, seconds: *seconds, bin: *bin, base: time.Now(),
		hashSeed: maphash.MakeSeed(), report: map[string]any{}}
	r.deadline = r.base.Add(runDeadline)

	fn, units := wl.e2e, e2eUnits
	if *trace == 1 {
		fn, units = wl.layers, layerUnits
	}
	vals, err := fn(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res := result{Attempted: r.tally.attempted, Failed: r.tally.failed, Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	var missing []string
	for k, unit := range units {
		v, ok := vals[k]
		if !ok {
			missing = append(missing, k)
		}
		res.Metrics[k] = metric{Value: v, Unit: unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fmt.Fprintln(os.Stderr, "perfbench: internal error, unmeasured metrics:", strings.Join(missing, ", "))
		return 1
	}
	meta := runMeta(r, *trace)
	if err := writeRecord(*results, r, *trace, meta, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: results record:", err)
	}
	metaLine, _ := json.Marshal(meta)
	fmt.Fprintf(os.Stderr, "perfbench: meta %s\n", metaLine)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runMeta is what a result needs to be compared fairly with another.
func runMeta(r *runner, trace int) map[string]any {
	return map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.seconds,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit(),
		"transport":  "loopback TCP (127.0.0.1), at most 2 connections",
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the tree under test: its git HEAD, when the checkout is
// a repository.
func commit() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown (not a git checkout)"
}

func writeRecord(dir string, r *runner, trace int, meta map[string]any, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := map[string]any{"meta": meta, "result": res, "report": r.report}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s.seed%d.trace%d.json", r.workload, r.seed, trace)
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
