package core

import (
	"math"
	"time"

	"repro/internal/stats"
)

// ProbingPolicy decides how often a link of a given quality is probed for
// capacity. The paper's §7.3 compares fixed intervals against a
// quality-adaptive schedule.
type ProbingPolicy interface {
	// Name labels the policy in result tables.
	Name() string
	// Interval returns the probing interval for a link whose last
	// capacity estimate is the given BLE (Mb/s).
	Interval(bleMbps float64) time.Duration
}

// FixedPolicy probes every link at one interval regardless of quality.
type FixedPolicy struct {
	Every time.Duration
}

// Name implements ProbingPolicy.
func (p FixedPolicy) Name() string { return "fixed-" + p.Every.String() }

// Interval implements ProbingPolicy.
func (p FixedPolicy) Interval(float64) time.Duration { return p.Every }

// AdaptivePolicy is the paper's method: bad links probe often, good links
// rarely (§7.3: bad every 5 s, average 8× slower, good 16× slower, with
// BLE thresholds of 60 and 100 Mb/s).
type AdaptivePolicy struct {
	BadBelowMbps  float64
	GoodAboveMbps float64
	Bad           time.Duration
	Average       time.Duration
	Good          time.Duration
}

// PaperAdaptivePolicy returns the exact §7.3 configuration.
func PaperAdaptivePolicy() AdaptivePolicy {
	return AdaptivePolicy{
		BadBelowMbps:  60,
		GoodAboveMbps: 100,
		Bad:           5 * time.Second,
		Average:       40 * time.Second,
		Good:          80 * time.Second,
	}
}

// Name implements ProbingPolicy.
func (AdaptivePolicy) Name() string { return "quality-adaptive" }

// Interval implements ProbingPolicy.
func (p AdaptivePolicy) Interval(ble float64) time.Duration {
	switch {
	case ble < p.BadBelowMbps:
		return p.Bad
	case ble > p.GoodAboveMbps:
		return p.Good
	default:
		return p.Average
	}
}

// ProbingEval is the outcome of replaying a capacity trace through a
// probing policy: the per-probe estimation errors and the probe count
// (overhead).
type ProbingEval struct {
	Policy string
	// Errors are |BLE(t_probe) - mean BLE until the next probe| samples,
	// the §7.3 error definition.
	Errors []float64
	// Probes is the number of probe transmissions used.
	Probes int
	// Duration is the replayed trace length.
	Duration time.Duration
}

// MeanError returns the average estimation error (Mb/s).
func (e *ProbingEval) MeanError() float64 { return stats.Mean(e.Errors) }

// OverheadKbps returns the probing overhead in kb/s for the given probe
// size in bytes (the paper uses 1500 B probes for its 240 kb/s figure).
func (e *ProbingEval) OverheadKbps(probeBytes int) float64 {
	if e.Duration <= 0 {
		return 0
	}
	return float64(e.Probes*probeBytes*8) / e.Duration.Seconds() / 1000
}

// EvaluateProbing replays a finely sampled BLE series (one sample per
// measurement period, e.g. 50 ms) through a probing policy: at each probe
// instant the policy's estimate is the sampled BLE, the "exact" capacity
// is the mean of the series until the next probe, and their absolute
// difference is one error sample (§7.3).
func EvaluateProbing(series *stats.Series, policy ProbingPolicy) ProbingEval {
	ev := ProbingEval{Policy: policy.Name()}
	n := series.Len()
	if n == 0 {
		return ev
	}
	ev.Duration = series.T[n-1] - series.T[0]
	i := 0
	for i < n {
		est := series.V[i]
		ev.Probes++
		next := series.T[i] + policy.Interval(est)
		// Average the true capacity until the next probe.
		var sum float64
		var cnt int
		j := i
		for j < n && series.T[j] < next {
			sum += series.V[j]
			cnt++
			j++
		}
		if cnt > 0 {
			ev.Errors = append(ev.Errors, math.Abs(est-sum/float64(cnt)))
		}
		if j == i {
			j++
		}
		i = j
	}
	return ev
}
