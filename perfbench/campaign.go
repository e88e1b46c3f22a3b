package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
)

// campaignReps is how many times a run executes the fixed campaign.
// Every metric is the median over them; job latencies pool the jobs of
// all of them.
const campaignReps = 3

// campaignSetupOnly launches per end-to-end run are interrupted once
// their first job line arrives: they only time set-up, so setup_s is a
// median over many launches at the cost of one short job each. They run
// one worker, which leaves the campaign's JSONL writer a free processor:
// with both workers busy its first line can wait a scheduler quantum,
// which would swamp the few milliseconds being measured.
const campaignSetupOnly = 7

func campaignScenarios(seed int64) []string {
	return []string{"paper", fmt.Sprintf("gen:stations=24;boards=2;seed=%d", seed)}
}

func campaignArgs(seed int64, workers int) []string {
	return []string{"-run", "all", "-scenarios", strings.Join(campaignScenarios(seed), ","),
		"-decimate", fmt.Sprint(decimate), "-scale", "0.05", "-parallel", fmt.Sprint(workers),
		"-jsonl", "-", "-quiet", "-seed", fmt.Sprint(seed)}
}

// jobRecord is the part of a campaign JSONL record the benchmark reads.
type jobRecord struct {
	Experiment string  `json:"experiment"`
	Scenario   string  `json:"scenario"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	Err        string  `json:"error"`
	Claim      string  `json:"claim"`
}

// campaignRep is one execution of the campaign.
type campaignRep struct {
	setup, wall float64 // s
	span        float64 // s, first job start to last job line
	report      exitReport
	jobs        []jobRecord
}

// runCampaign executes the plan once, reading the JSONL stream as it
// arrives. Set-up is the first line's arrival minus that job's own
// elapsed time: process start plus plan construction. With setupOnly
// the campaign is interrupted after that first line.
func (r *runner) runCampaign(setupOnly bool) (campaignRep, error) {
	var rep campaignRep
	workers := 2
	if setupOnly {
		workers = 1
	}
	cmd := exec.Command(filepath.Join(r.bin, "experiments"), campaignArgs(r.seed, workers)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return rep, err
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return rep, fmt.Errorf("start experiments: %w", err)
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	var start, lastLine float64
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] != '{' {
			continue // the text summary printed after the stream
		}
		at := time.Since(t0).Seconds()
		var rec jobRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			r.tally.op(fmt.Errorf("campaign JSONL: %w", err))
			continue
		}
		if len(rep.jobs) == 0 {
			start = at - rec.ElapsedMS/1e3
			rep.setup = start
		}
		lastLine = at
		rep.jobs = append(rep.jobs, rec)
		switch {
		case rec.Err != "":
			r.tally.op(fmt.Errorf("campaign job %s on %s: %s", rec.Experiment, rec.Scenario, rec.Err))
		case rec.Claim != "":
			r.tally.op(fmt.Errorf("campaign claim %s on %s: %s", rec.Experiment, rec.Scenario, rec.Claim))
		default:
			r.tally.op(nil)
		}
		if setupOnly {
			_ = cmd.Process.Signal(os.Interrupt)
			break
		}
	}
	if setupOnly {
		// The interrupted campaign exits 1 by design; drain its output
		// and wait for it, killing it if it does not stop.
		kill := time.AfterFunc(drainTimeout, func() { _ = cmd.Process.Kill() })
		_, _ = io.Copy(io.Discard, stdout)
		_ = cmd.Wait()
		kill.Stop()
		if len(rep.jobs) == 0 {
			err := fmt.Errorf("campaign ended before its first job: %s", strings.TrimSpace(stderr.String()))
			r.tally.op(err)
			return rep, err
		}
		return rep, nil
	}
	werr := cmd.Wait()
	rep.wall = time.Since(t0).Seconds()
	rep.span = lastLine - start
	rep.report = processReport(cmd.ProcessState)
	if werr != nil {
		err := fmt.Errorf("experiments exit: %v: %s", werr, strings.TrimSpace(stderr.String()))
		r.tally.op(err)
		return rep, err
	}
	want := len(experiments.List()) * len(campaignScenarios(r.seed))
	if len(rep.jobs) != want {
		err := fmt.Errorf("campaign produced %d jobs, want %d", len(rep.jobs), want)
		r.tally.op(err)
		return rep, err
	}
	r.tally.op(nil)
	return rep, nil
}

func (r *runner) campaignRuns() ([]campaignRep, error) {
	var reps []campaignRep
	for i := 0; i < campaignReps; i++ {
		rep, err := r.runCampaign(false)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// campaignE2E runs the paper-reproduction campaign: every registered
// experiment on the paper floor and one gen: floor, two workers.
func (r *runner) campaignE2E() (map[string]float64, error) {
	var setup []float64
	for i := 0; i < campaignSetupOnly; i++ {
		rep, err := r.runCampaign(true)
		if err != nil {
			return nil, err
		}
		setup = append(setup, rep.setup)
	}
	reps, err := r.campaignRuns()
	if err != nil {
		return nil, err
	}
	var wall, cpu, rss, jobs, busySetup []float64
	for _, rep := range reps {
		busySetup = append(busySetup, rep.setup)
		wall = append(wall, rep.wall)
		cpu = append(cpu, rep.report.CPU.Seconds())
		rss = append(rss, rep.report.PeakRSSMB)
		for _, j := range rep.jobs {
			jobs = append(jobs, j.ElapsedMS)
		}
	}
	p50, ok50 := percentile(jobs, 0.5)
	p90, ok90 := percentile(jobs, 0.9)
	if !ok50 || !ok90 {
		return nil, fmt.Errorf("too few jobs (%d) for p90", len(jobs))
	}
	r.note("campaign_s", wall)
	r.note("cpu_s", cpu)
	r.note("setup_s", setup)
	r.note("setup_s_two_workers", busySetup)
	r.note("job_samples", len(jobs))
	return map[string]float64{
		"setup_s":     median(setup),
		"work_s":      median(wall),
		"op_p50_ms":   p50,
		"op_p90_ms":   p90,
		"peak_rss_mb": median(rss),
	}, nil
}

// campaignLayers reports where the campaign's time went, per registry
// experiment, from the jobs' own elapsed times. The service layers do no
// work here and report 0.
func (r *runner) campaignLayers() (map[string]float64, error) {
	reps, err := r.campaignRuns()
	if err != nil {
		return nil, err
	}
	m := zeroLayers()
	perID := map[string][]float64{}
	var sums, longest, idle []float64
	for _, rep := range reps {
		byID := map[string]float64{}
		sum, top := 0.0, 0.0
		for _, j := range rep.jobs {
			byID[j.Experiment] += j.ElapsedMS
			sum += j.ElapsedMS
			top = max(top, j.ElapsedMS)
		}
		for _, id := range campaignIDs {
			perID[id] = append(perID[id], byID[id])
		}
		sums, longest = append(sums, sum), append(longest, top)
		idle = append(idle, 1-sum/1e3/(2*rep.span))
	}
	for _, id := range campaignIDs {
		m["campaign.job_ms."+id] = median(perID[id])
	}
	m["campaign.job_ms_sum"] = median(sums)
	m["campaign.longest_job_ms"] = median(longest)
	m["campaign.idle_frac"] = median(idle)
	return m, nil
}
