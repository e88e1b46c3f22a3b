package campaign

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
)

// testCfg mirrors the experiment suite's minimal scale.
func testCfg() experiments.Config {
	return experiments.Config{Seed: 1, Scale: 0.05, Decimate: 16}
}

// testPlan is a single-cell plan over the test config.
func testPlan(ids ...string) Plan {
	opts := []PlanOption{PlanConfig(testCfg())}
	if ids != nil {
		opts = append(opts, PlanExperiments(ids...))
	}
	return NewPlan(opts...)
}

// subset is a spread of cheap harnesses covering both testbed specs, the
// isolated rigs, the CSMA DES and the tables.
var subset = []string{"fig04", "fig06", "fig09", "fig17", "fig18", "fig21", "table2", "table3"}

// TestParallelMatchesSerial is the engine's core guarantee: a plan run
// on N workers (with the memoizing testbed pool active) renders
// byte-identical tables and summaries to the serial, fresh-testbed path.
func TestParallelMatchesSerial(t *testing.T) {
	type render struct{ name, table, summary string }
	serial := make([]render, 0, len(subset))
	for _, id := range subset {
		r, err := experiments.Run(context.Background(), id, testCfg())
		if err != nil {
			t.Fatalf("serial %s: %v", id, err)
		}
		serial = append(serial, render{r.Name(), r.Table(), r.Summary()})
	}

	outs, err := Collect(context.Background(), testPlan(subset...), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(subset) {
		t.Fatalf("outcomes = %d, want %d", len(outs), len(subset))
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("%s failed: %v", o.Job, o.Err)
		}
		if o.Experiment.ID != subset[i] {
			t.Fatalf("outcome %d is %s, want %s (job order must be preserved)", i, o.Experiment.ID, subset[i])
		}
		got := render{o.Result.Name(), o.Result.Table(), o.Result.Summary()}
		if got != serial[i] {
			t.Fatalf("%s diverged from serial run:\nparallel table:\n%s\nserial table:\n%s", o.Experiment.ID, got.table, serial[i].table)
		}
		if o.Worker < 0 || o.Elapsed <= 0 {
			t.Fatalf("%s missing execution metadata: worker %d elapsed %v", o.Experiment.ID, o.Worker, o.Elapsed)
		}
	}
}

// TestRunAllRegistryOrder checks a full-registry plan reports outcomes
// in presentation order whatever the (longest-first) execution order
// was.
func TestRunAllRegistryOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign is slow")
	}
	outs, err := Collect(context.Background(), testPlan(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ids := experiments.IDs()
	if len(outs) != len(ids) {
		t.Fatalf("outcomes = %d, want %d", len(outs), len(ids))
	}
	for i, o := range outs {
		if o.Experiment.ID != ids[i] {
			t.Fatalf("outcome %d is %s, want %s", i, o.Experiment.ID, ids[i])
		}
		if o.Err != nil {
			t.Fatalf("%s: %v", o.Job, o.Err)
		}
	}
}

// TestCancellationStopsPromptly cancels a campaign mid-flight and checks
// Wait returns ctx.Err() quickly, with unfinished jobs marked.
func TestCancellationStopsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	opts := Options{
		Workers: 2,
		// Big scale so harnesses run long enough to be caught mid-loop:
		// the cancel lands 300 ms after the first start, well inside the
		// first harness's measurement sweep.
		Observer: func(ev Event) {
			if ev.Kind == EventStarted {
				once.Do(func() {
					go func() {
						time.Sleep(300 * time.Millisecond)
						cancel()
					}()
				})
			}
		},
	}
	cfg := experiments.Config{Seed: 1, Scale: 0.5, Decimate: 8}
	begin := time.Now()
	outs, err := Collect(ctx, NewPlan(PlanConfig(cfg)), opts)
	elapsed := time.Since(begin)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The full campaign at this scale takes minutes; cancellation right
	// after the first start must abort orders of magnitude sooner.
	if elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	var cancelled int
	for _, o := range outs {
		if errors.Is(o.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no outcome carries the cancellation error")
	}
}

// TestNilNilOutcomeNotRepublishedOnCancel pins the cancellation sweep's
// never-started guard. A harness may legally return (nil, nil); its
// outcome is published by the worker, and when the campaign is then
// cancelled the sweep must not mistake the nil Result/Err pair for a
// never-started job — republishing it overflows the exactly-sized
// outcome stream and hangs Wait forever.
func TestNilNilOutcomeNotRepublishedOnCancel(t *testing.T) {
	orig := runExperiment
	runExperiment = func(context.Context, string, experiments.Config) (experiments.Result, error) {
		return nil, nil
	}
	defer func() { runExperiment = orig }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, err := Start(ctx, testPlan("table3"), Options{
		Workers: 1,
		// Cancel after the stub job has finished: the sweep then runs
		// with a completed (nil, nil) outcome already on the stream.
		Observer: func(ev Event) {
			if ev.Kind == EventFinished {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	type waitResult struct {
		outs []JobOutcome
		err  error
	}
	done := make(chan waitResult, 1)
	go func() {
		outs, werr := r.Wait()
		done <- waitResult{outs, werr}
	}()
	var res waitResult
	select {
	case res = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Wait hung: (nil, nil) outcome republished by the cancellation sweep")
	}
	if len(res.outs) != 1 {
		t.Fatalf("streamed %d outcomes, want exactly 1", len(res.outs))
	}
	o := res.outs[0]
	if o.Worker != 0 {
		t.Fatalf("outcome Worker = %d, want 0 (ran on the pool)", o.Worker)
	}
	if o.Result != nil || o.Err != nil {
		t.Fatalf("outcome = (%v, %v), want the harness's (nil, nil)", o.Result, o.Err)
	}
}

// TestErrorOrdering drives every selected harness into failure (via an
// unmeetable per-job timeout) and checks the campaign still runs the
// rest, reports all outcomes, and propagates the first failure in job
// order.
func TestErrorOrdering(t *testing.T) {
	ids := []string{"fig06", "fig04", "table3"}
	outs, err := Collect(context.Background(), testPlan(ids...), Options{Workers: 2, Timeout: time.Nanosecond})
	if err == nil {
		t.Fatal("want an error from failing harnesses")
	}
	if !strings.Contains(err.Error(), "fig06") {
		t.Fatalf("error %q must name the first failing experiment in job order (fig06)", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped DeadlineExceeded", err)
	}
	if len(outs) != len(ids) {
		t.Fatalf("outcomes = %d, want %d (failures must not discard siblings)", len(outs), len(ids))
	}
	for _, o := range outs {
		if !errors.Is(o.Err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want DeadlineExceeded", o.Job, o.Err)
		}
		// Harnesses return typed-nil pointers through the Result
		// interface on failure; the engine must normalise them so
		// callers can rely on a plain nil check before rendering.
		if o.Result != nil {
			t.Fatalf("%s: failed outcome carries non-nil Result %#v", o.Job, o.Result)
		}
	}
}

// TestUnknownExperiment checks plan validation.
func TestUnknownExperiment(t *testing.T) {
	_, err := Collect(context.Background(), testPlan("fig99"), Options{})
	if err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("err = %v, want unknown-experiment naming fig99", err)
	}
}

// TestSchedulingAndEvents checks the longest-first feed order and the
// observer's progress accounting on a single worker.
func TestSchedulingAndEvents(t *testing.T) {
	ids := []string{"table3", "fig18", "fig09"}
	byID := map[string]experiments.Meta{}
	for _, m := range experiments.List() {
		byID[m.ID] = m
	}
	costliest := ids[0]
	for _, id := range ids {
		if byID[id].Cost > byID[costliest].Cost {
			costliest = id
		}
	}

	var mu sync.Mutex
	var started []string
	var finishes int
	lastDone := 0
	outs, err := Collect(context.Background(), testPlan(ids...), Options{
		Workers: 1,
		Observer: func(ev Event) {
			mu.Lock()
			defer mu.Unlock()
			switch ev.Kind {
			case EventStarted:
				started = append(started, ev.Job.Experiment.ID)
			case EventFinished:
				finishes++
				if ev.Done != lastDone+1 || ev.Total != len(ids) {
					t.Errorf("progress %d/%d after %d finishes", ev.Done, ev.Total, finishes)
				}
				lastDone = ev.Done
			case EventFailed:
				t.Errorf("%s failed: %v", ev.Job, ev.Err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(ids) || finishes != len(ids) {
		t.Fatalf("outcomes %d, finish events %d, want %d", len(outs), finishes, len(ids))
	}
	if started[0] != costliest {
		t.Fatalf("first start = %s, want costliest %s (longest-first schedule)", started[0], costliest)
	}
}
