// Package campaign is the run plane of the reproduction: it executes
// measurement campaigns — the cross product of {experiments × scenarios
// × seeds} declared by a Plan — on one concurrent engine.
//
// Start(ctx, plan, opts) returns a *Run handle whose Outcomes() iterator
// streams one unified JobOutcome per job as workers finish and whose
// Wait() returns the collected, job-ordered slice. Each harness builds
// its own seeded testbed, so runs are independent and a plan's results
// are bit-identical however many workers execute them; outcomes stream
// to disk through JSONLSink/CSVSink, and Aggregate folds multi-seed
// replicates into per-(experiment, scenario) mean/stddev/CI rows.
//
// The engine is a worker pool fed longest-first (by the registry's
// estimated cost) to minimise makespan, with context cancellation and
// per-job timeouts threaded down into the harness loops, progress
// events for observers, and one shared memoizing testbed factory so
// equal floors are assembled once.
package campaign

import (
	"fmt"
	"time"
)

// EventKind tags a progress event.
type EventKind int

// Event kinds, in lifecycle order.
const (
	// EventStarted fires when a worker picks a job up.
	EventStarted EventKind = iota
	// EventFinished fires when a job completes successfully.
	EventFinished
	// EventFailed fires when a job returns an error (including
	// cancellation and per-job timeout).
	EventFailed
)

// String renders the kind for logs.
func (k EventKind) String() string {
	switch k {
	case EventStarted:
		return "started"
	case EventFinished:
		return "finished"
	case EventFailed:
		return "failed"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one progress notification of a running campaign.
type Event struct {
	Kind EventKind
	// Job identifies the cross-product cell (experiment, scenario,
	// seed).
	Job Job
	// Worker is the index of the pool worker handling the job.
	Worker int
	// Done and Total report campaign progress: Done counts jobs
	// finished or failed at the time of the event.
	Done, Total int
	// Elapsed is the job's runtime (finished/failed events).
	Elapsed time.Duration
	// Err is the failure cause (failed events).
	Err error
}

// Options tunes a campaign run.
type Options struct {
	// Workers caps the number of jobs in flight; <= 0 means
	// runtime.GOMAXPROCS(0), i.e. one worker per available CPU.
	Workers int
	// Timeout bounds each job's runtime; 0 means no bound.
	Timeout time.Duration
	// Observer, when set, receives progress events. Calls are
	// serialised; the callback must not block for long.
	Observer func(Event)
}

// FailedClaims filters a campaign's outcomes down to the ones whose
// qualitative claim did not hold.
func FailedClaims(outs []JobOutcome) []JobOutcome {
	var bad []JobOutcome
	for _, o := range outs {
		if o.Claim != nil {
			bad = append(bad, o)
		}
	}
	return bad
}
