// Package hybrid implements the WiFi+PLC bandwidth-aggregation layer of
// §7.4: a Click-style element pipeline sitting between IP and MAC that
// splits packets across media proportionally to their estimated
// capacities, compared against a capacity-blind round-robin scheduler.
//
// Schedulers consume the IEEE 1905-style abstraction layer (al.Link), so
// the balancer is medium-blind: any technology that implements al.Link —
// PLC, WiFi, a future MoCA backend — joins the hybrid node unchanged.
package hybrid

import (
	"fmt"
	"math"
	"time"

	"repro/internal/al"
)

// Scheduler picks a traffic split across the node's attached links.
type Scheduler interface {
	Name() string
	// Weights returns the traffic share per link at time t; the shares
	// must sum to 1 over the usable (connected) links whenever any link
	// is usable. This is the traffic-driven path: implementations may
	// query links directly (and a probing PLC adapter will inject probe
	// traffic on Capacity reads).
	Weights(t time.Duration, links []al.Link) []float64
}

// StateScheduler is the batched read path: schedulers that can split from
// a pre-evaluated snapshot implement it, so a consumer holding an
// al.Snapshot (a 1905 metric refresh of the whole floor) prices a split
// without re-querying any link. Both built-in schedulers implement it.
type StateScheduler interface {
	Scheduler
	// WeightsFromStates mirrors Weights over evaluated link states.
	WeightsFromStates(states []al.LinkState) []float64
}

// Proportional is the paper's load balancer: share ∝ estimated capacity.
type Proportional struct{}

// Name implements Scheduler.
func (Proportional) Name() string { return "hybrid" }

// Weights implements Scheduler: it performs the live reads — Capacity
// first, so a probing PLC adapter refreshes its estimate exactly once
// per link per step — and delegates the split to WeightsFromStates, the
// single copy of the guard logic.
func (p Proportional) Weights(t time.Duration, links []al.Link) []float64 {
	states := make([]al.LinkState, len(links))
	for i, l := range links {
		states[i] = al.LinkState{Capacity: l.Capacity(t), Connected: l.Connected(t)}
	}
	return p.WeightsFromStates(states)
}

// WeightsFromStates implements StateScheduler: share ∝ the capacity
// estimate, with two guards — a stale estimate on a dark link (a WiFi
// EWMA that has not caught up with a blind spot) must not attract
// traffic, and with no estimates at all the split falls back to equal
// shares over the usable (connected) links only, since weight on a
// blind-spot link would sink that share of the traffic.
func (Proportional) WeightsFromStates(states []al.LinkState) []float64 {
	w := make([]float64, len(states))
	var sum float64
	for i, st := range states {
		c := st.Capacity
		if c < 0 {
			c = 0
		}
		if c > 0 && !st.Connected {
			c = 0
		}
		w[i] = c
		sum += c
	}
	if sum == 0 {
		usable := 0
		for _, st := range states {
			if st.Connected {
				usable++
			}
		}
		if usable == 0 {
			return w // all dark: no split exists, the node is stalled
		}
		for i, st := range states {
			if st.Connected {
				w[i] = 1 / float64(usable)
			}
		}
		return w
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// RoundRobin alternates packets blindly — the paper's baseline whose
// aggregate is limited to twice the slowest medium.
type RoundRobin struct{}

// Name implements Scheduler.
func (RoundRobin) Name() string { return "round-robin" }

// Weights implements Scheduler.
func (RoundRobin) Weights(t time.Duration, links []al.Link) []float64 {
	w := make([]float64, len(links))
	for i := range w {
		w[i] = 1 / float64(len(w))
	}
	return w
}

// WeightsFromStates implements StateScheduler.
func (RoundRobin) WeightsFromStates(states []al.LinkState) []float64 {
	w := make([]float64, len(states))
	for i := range w {
		w[i] = 1 / float64(len(w))
	}
	return w
}

// AggregateThroughput returns the saturated goodput of the hybrid node at
// time t: the largest input rate R such that no link receives more than it
// can deliver, i.e. R = min_i goodput_i / weight_i. With accurate capacity
// estimates the proportional scheduler approaches Σ goodput_i, while
// round-robin is pinned at n·min_i goodput_i — the Fig. 20 contrast.
func AggregateThroughput(t time.Duration, s Scheduler, links []al.Link) float64 {
	if len(links) == 0 {
		return 0
	}
	return aggregate(t, s.Weights(t, links), links)
}

// AggregateFromStates computes the saturated goodput of the hybrid node
// from one snapshot's evaluated states — the batched read path: no link
// is re-queried, the split is priced against the goodputs the snapshot
// already holds. Weight semantics match AggregateThroughput.
func AggregateFromStates(s StateScheduler, states []al.LinkState) float64 {
	if len(states) == 0 {
		return 0
	}
	w := s.WeightsFromStates(states)
	rate := -1.0
	for i, st := range states {
		if i >= len(w) || w[i] <= 0 {
			continue
		}
		r := st.Goodput / w[i]
		if rate < 0 || r < rate {
			rate = r
		}
	}
	if rate < 0 {
		return 0
	}
	return rate
}

// aggregate computes the saturated input rate for a fixed weight vector.
func aggregate(t time.Duration, w []float64, links []al.Link) float64 {
	rate := -1.0
	for i, l := range links {
		// Goodput is read for every link, weighted or not: goodput models
		// are stateful (WiFi rate adaptation tracks an SNR EWMA), and the
		// medium keeps adapting whether or not this step routes onto it.
		tp := l.Goodput(t)
		if i >= len(w) || w[i] <= 0 {
			continue // link unused: does not bound the rate
		}
		r := tp / w[i]
		if rate < 0 || r < rate {
			rate = r
		}
	}
	if rate < 0 {
		return 0
	}
	return rate
}

// weightTolerance bounds how far a scheduler's weights may stray from a
// probability distribution over the usable links.
const weightTolerance = 0.01

// validateWeights rejects weight vectors that silently mis-split traffic:
// whenever any link is usable, the weights over the usable links must sum
// to ~1 (weight assigned to a dark link sinks that share of the traffic).
// With every link dark no valid split exists; the stall budget governs.
func validateWeights(t time.Duration, s Scheduler, w []float64, links []al.Link) error {
	if len(w) != len(links) {
		return fmt.Errorf("hybrid: scheduler %s returned %d weights for %d links", s.Name(), len(w), len(links))
	}
	anyUsable := false
	var usableSum float64
	for i, l := range links {
		if l.Connected(t) {
			anyUsable = true
			usableSum += w[i]
		}
	}
	if !anyUsable {
		return nil
	}
	// Inverted comparison so a NaN sum (a scheduler that divided by a
	// zero total) is rejected rather than slipping through.
	if !(math.Abs(usableSum-1) <= weightTolerance) {
		return fmt.Errorf("hybrid: scheduler %s mis-splits traffic at t=%v: weights sum to %.3f over usable links",
			s.Name(), t, usableSum)
	}
	return nil
}

// Transfer simulates moving size bytes through the hybrid node starting at
// start, integrating the aggregate goodput over wall-clock steps, and
// returns the completion time (§7.4's 600 MB download comparison).
// Scheduler weights are validated every step — a split that leaks traffic
// onto dark links aborts with an error rather than silently slowing the
// transfer — and a zero aggregate rate longer than stallLimit aborts too.
func Transfer(start time.Duration, sizeBytes int64, step time.Duration, s Scheduler, links []al.Link) (time.Duration, error) {
	const stallLimit = 10 * time.Minute
	if step <= 0 {
		step = 100 * time.Millisecond
	}
	remaining := float64(sizeBytes) * 8 // bits
	t := start
	stalled := time.Duration(0)
	for remaining > 0 {
		w := s.Weights(t, links)
		if err := validateWeights(t, s, w, links); err != nil {
			return 0, err
		}
		r := aggregate(t, w, links) // Mb/s
		bits := r * 1e6 * step.Seconds()
		if bits <= 0 {
			stalled += step
			if stalled > stallLimit {
				return 0, fmt.Errorf("hybrid: transfer stalled for %v", stallLimit)
			}
		} else {
			stalled = 0
		}
		if bits >= remaining && r > 0 {
			frac := remaining / bits
			t += time.Duration(float64(step) * frac)
			return t - start, nil
		}
		remaining -= bits
		t += step
	}
	return t - start, nil
}
