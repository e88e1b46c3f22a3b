package campaign

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/testbed"
)

// JobOutcome is one job's result: the unified record of the run plane
// (it subsumes the former campaign.Outcome and SweepOutcome).
type JobOutcome struct {
	// Job carries the cross-product coordinates (experiment, scenario,
	// seed).
	Job
	// Result is nil when the job failed or was never started before
	// cancellation.
	Result experiments.Result
	// Err is the harness error, ctx.Err() for jobs cancelled or never
	// started, or nil.
	Err error
	// Claim is the result's qualitative-claim verdict (see
	// experiments.Checker); nil when the claim holds, when the harness
	// failed (Err governs), or when the result does not self-assess.
	Claim error
	// Elapsed is the wall-clock runtime (zero if never started).
	Elapsed time.Duration
	// Worker is the pool worker that ran the job (-1 if never started).
	Worker int
}

// Run is a handle on an executing campaign. Outcomes streams results as
// workers finish; Wait blocks for the collected, job-ordered slice.
type Run struct {
	jobs     []Job
	outcomes []JobOutcome
	stream   chan JobOutcome
	done     chan struct{}
	err      error
}

// Start validates the plan and launches it on a worker pool, returning
// immediately with a handle. The pool executes the plan's jobs
// longest-first (by the registry's estimated cost) on opts.Workers
// workers, sharing one memoizing testbed factory.
//
// Error contract: every runnable job is attempted even when a sibling
// fails; Wait returns the first harness failure in job order, wrapped
// with the job's coordinates. Cancelling ctx stops the run promptly —
// in-flight harnesses observe ctx between measurement windows — and
// Wait returns ctx.Err(); jobs never started carry ctx.Err() in their
// outcome. Claim verdicts are reported per outcome, never as errors.
func Start(ctx context.Context, plan Plan, opts Options) (*Run, error) {
	jobs, err := plan.Jobs()
	if err != nil {
		return nil, err
	}
	r := &Run{
		jobs:     jobs,
		outcomes: make([]JobOutcome, len(jobs)),
		stream:   make(chan JobOutcome, len(jobs)),
		done:     make(chan struct{}),
	}
	for i, j := range jobs {
		r.outcomes[i] = JobOutcome{Job: j, Worker: -1}
	}
	go r.execute(ctx, plan.Config, opts)
	return r, nil
}

// Collect is Start followed by Wait: it runs the whole plan and returns
// the job-ordered outcomes.
func Collect(ctx context.Context, plan Plan, opts Options) ([]JobOutcome, error) {
	r, err := Start(ctx, plan, opts)
	if err != nil {
		return nil, err
	}
	return r.Wait()
}

// Jobs returns the plan's validated cross product in job order.
func (r *Run) Jobs() []Job {
	return append([]Job(nil), r.jobs...)
}

// Outcomes returns a single-use iterator streaming outcomes in
// completion order as workers finish; it yields exactly one outcome per
// job (cancelled, never-started jobs included) and ends when the run
// does or when the consumer breaks. The stream is shared: concurrent
// iterations split the outcomes between them. Iterating after Wait
// yields whatever the run produced, from a buffer.
func (r *Run) Outcomes() iter.Seq[JobOutcome] {
	return func(yield func(JobOutcome) bool) {
		for o := range r.stream {
			if !yield(o) {
				return
			}
		}
	}
}

// Wait blocks until every job has finished (or the context was
// cancelled) and returns the outcomes in job order — deterministic
// whatever the worker count — plus the run error: ctx.Err() on
// cancellation, else the first harness failure in job order.
func (r *Run) Wait() ([]JobOutcome, error) {
	<-r.done
	return append([]JobOutcome(nil), r.outcomes...), r.err
}

// Stream drains the run into the given sinks — every outcome is written
// to every sink as workers finish — then waits. A failing sink stops
// receiving but does not abort the campaign; the first sink error is
// returned once the run itself succeeded.
func (r *Run) Stream(sinks ...Sink) ([]JobOutcome, error) {
	var sinkErr error
	dead := make([]bool, len(sinks))
	for o := range r.Outcomes() {
		for i, s := range sinks {
			if s == nil || dead[i] {
				continue
			}
			if err := s.Write(o); err != nil {
				dead[i] = true
				if sinkErr == nil {
					sinkErr = fmt.Errorf("campaign: sink %d: %w", i, err)
				}
			}
		}
	}
	outs, err := r.Wait()
	if err == nil {
		err = sinkErr
	}
	return outs, err
}

// execute is the worker-pool core: longest-first feed, per-job testbed
// sessions from one shared memoizing factory, scenario/seed-tagged
// progress events, streaming publication of every outcome.
func (r *Run) execute(ctx context.Context, cfg experiments.Config, opts Options) {
	defer close(r.done)
	defer close(r.stream)

	total := len(r.jobs)
	if total == 0 {
		r.err = ctx.Err()
		return
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}

	factory := testbed.NewFactory()

	// Longest-first schedule: sort indices by estimated cost, stable on
	// the job order so equal-cost jobs keep a deterministic feed order.
	order := make([]int, total)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return r.jobs[order[a]].Experiment.Cost > r.jobs[order[b]].Experiment.Cost
	})

	var (
		mu   sync.Mutex // guards done counter and observer calls
		done int
	)
	emit := func(ev Event) {
		mu.Lock()
		if ev.Kind != EventStarted {
			done++
		}
		ev.Done, ev.Total = done, total
		if opts.Observer != nil {
			opts.Observer(ev)
		}
		mu.Unlock()
	}

	feedC := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for idx := range feedC {
				job := r.jobs[idx]
				jcfg := cfg
				jcfg.Scenario = job.Scenario
				jcfg.Seed = job.Seed
				o := runOne(ctx, jcfg, job, worker, opts.Timeout, factory, emit)
				r.outcomes[idx] = o
				r.stream <- o // buffered to len(jobs); never blocks
			}
		}(w)
	}
feed:
	for _, idx := range order {
		select {
		case feedC <- idx:
		case <-ctx.Done():
			break feed
		}
	}
	close(feedC)
	wg.Wait()

	// Jobs never handed to a worker keep Worker == -1; mark them with
	// the cancellation cause and publish them so Outcomes always yields
	// one record per job. The guard must be the worker sentinel, not a
	// nil Result/Err pair: a harness may legally return (nil, nil), and
	// its already-published outcome must not be published twice (the
	// stream is sized exactly one slot per job).
	if err := ctx.Err(); err != nil {
		for i := range r.outcomes {
			if r.outcomes[i].Worker == -1 {
				r.outcomes[i].Err = err
				r.stream <- r.outcomes[i]
			}
		}
		r.err = err
		return
	}
	for _, o := range r.outcomes {
		if o.Err != nil {
			r.err = fmt.Errorf("campaign: %s: %w", o.Job, o.Err)
			return
		}
	}
}

// runExperiment is the harness entry point, indirected so tests can stub
// degenerate harness behaviours (e.g. a legal (nil, nil) return) without
// registering throwaway experiments in the global registry.
var runExperiment = experiments.Run

// runOne executes a single job with its own testbed session and optional
// timeout, and self-assesses the result's qualitative claim.
func runOne(ctx context.Context, cfg experiments.Config, job Job, worker int, timeout time.Duration, factory *testbed.Factory, emit func(Event)) JobOutcome {
	runCtx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	sess := factory.Session()
	cfg.Testbeds = sess
	// Results hold plain data, never testbed references, so the leases
	// can be recycled as soon as the harness returns.
	defer sess.Close()
	emit(Event{Kind: EventStarted, Job: job, Worker: worker})
	begin := time.Now() //reprolint:allow wallclock -- JobOutcome.Elapsed reports real harness cost; it never feeds simulated results
	res, err := runExperiment(runCtx, job.Experiment.ID, cfg)
	elapsed := time.Since(begin) //reprolint:allow wallclock -- wall-clock half of the Elapsed measurement above
	if err != nil {
		// Failed harnesses return typed-nil results through the Result
		// interface; normalise so JobOutcome.Result == nil holds.
		res = nil
	}
	o := JobOutcome{Job: job, Result: res, Err: err, Elapsed: elapsed, Worker: worker}
	if err == nil && res != nil {
		o.Claim = experiments.CheckResult(res)
	}
	if err != nil {
		emit(Event{Kind: EventFailed, Job: job, Worker: worker, Elapsed: elapsed, Err: err})
	} else {
		emit(Event{Kind: EventFinished, Job: job, Worker: worker, Elapsed: elapsed})
	}
	return o
}
