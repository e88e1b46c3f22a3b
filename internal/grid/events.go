package grid

import (
	"sort"
	"time"
)

// Mask-transition timeline: every appliance schedule is a pure function
// of virtual time, so the instants at which the grid's StateMask can
// change are enumerable in advance. The grid maintains a lazily extended
// timeline of those transitions; mask queries between two transitions are
// an O(log transitions) interval lookup (O(1) for links, which cache the
// interval), with zero schedule walks.
//
// Enumeration works in two steps: each schedule kind contributes its
// *candidate* switching instants over a window (office-window edges,
// lighting times, RandomDuty cell boundaries, compressor duty edges), and
// the merged, sorted candidates are then confirmed against StateMask —
// a candidate that does not change the mask is dropped. Candidates only
// need to be exhaustive, never precise, so the construction is exact by
// construction: a transition can only happen at a candidate instant, and
// the mask held between confirmed transitions is a StateMask evaluation.

// MaskTransition is one appliance-state change of the grid: Mask is the
// StateMask holding from At until the next transition.
type MaskTransition struct {
	At   time.Duration
	Mask uint64
}

// timelineChunk is the horizon granularity: the timeline is built and
// extended in chunks of this length, so a campaign touching a few hours
// of virtual time never enumerates a whole week.
const timelineChunk = 6 * time.Hour

// timelineMaxLen bounds the retained timeline; a simulation scanning
// months of virtual time restarts the horizon instead of accumulating
// every historical transition.
const timelineMaxLen = 1 << 16

// MaskTransitions enumerates the appliance mask over [from, to): the
// first element carries the mask holding at from (At == from), each
// subsequent element is one transition. Results are computed from the
// schedules directly and are exact: between two consecutive elements the
// mask is constant.
func (g *Grid) MaskTransitions(from, to time.Duration) []MaskTransition {
	out := []MaskTransition{{At: from, Mask: g.StateMask(from)}}
	if to <= from {
		return out
	}
	times, masks := g.enumerate(from, to, out[0].Mask)
	for i := range times {
		out = append(out, MaskTransition{At: times[i], Mask: masks[i]})
	}
	return out
}

// enumerate returns the confirmed transitions in [from, to), given the
// mask holding at from. Candidates exactly at from are dropped by the
// mask-change confirmation (they cannot change a mask sampled at from).
func (g *Grid) enumerate(from, to time.Duration, maskAtFrom uint64) ([]time.Duration, []uint64) {
	var cand []time.Duration
	seenCell := false
	for _, a := range g.Appliances {
		switch a.Class.Schedule {
		case AlwaysOn:
			// never switches
		case OfficeHours:
			for day := DayIndex(from); day <= DayIndex(to-1); day++ {
				if w := int(((day % 7) + 7) % 7); w == 5 || w == 6 {
					continue
				}
				start, stop := a.officeWindow(day)
				base := time.Duration(day) * Day
				cand = appendWindow(cand, base+start, from, to)
				cand = appendWindow(cand, base+stop, from, to)
			}
		case Lights:
			for day := DayIndex(from); day <= DayIndex(to-1); day++ {
				if w := int(((day % 7) + 7) % 7); w == 5 || w == 6 {
					continue
				}
				base := time.Duration(day) * Day
				cand = appendWindow(cand, base+7*time.Hour+30*time.Minute, from, to)
				cand = appendWindow(cand, base+21*time.Hour, from, to)
			}
		case RandomDuty:
			// All cell boundaries are shared candidates; emitted once.
			if !seenCell {
				seenCell = true
				b := from - from%randomDutyCell
				if b < from {
					b += randomDutyCell
				}
				for ; b < to; b += randomDutyCell {
					cand = append(cand, b)
				}
			}
		case Compressor:
			period, duty, phase := a.compressorParams()
			dutyLen := time.Duration(duty * float64(period))
			// One cycle of slack against integer-division truncation so
			// edges right at the window start are never missed.
			k := (from+phase)/period - 1
			for ; ; k++ {
				onEdge := k*period - phase
				if onEdge >= to {
					break
				}
				cand = appendWindow(cand, onEdge, from, to)
				cand = appendWindow(cand, onEdge+dutyLen, from, to)
			}
		}
	}
	sort.Slice(cand, func(i, j int) bool { return cand[i] < cand[j] })

	var times []time.Duration
	var masks []uint64
	prev := maskAtFrom
	last := time.Duration(-1 << 62)
	for _, tt := range cand {
		if tt == last {
			continue
		}
		last = tt
		m := g.StateMask(tt)
		if m == prev {
			continue
		}
		times = append(times, tt)
		masks = append(masks, m)
		prev = m
	}
	return times, masks
}

// appendWindow appends t if it falls within [from, to).
func appendWindow(cand []time.Duration, t, from, to time.Duration) []time.Duration {
	if t >= from && t < to {
		return append(cand, t)
	}
	return cand
}

// invalidateTimeline resets the transition timeline (the appliance
// population changed) and bumps the generation so link-side interval
// caches stop trusting their bounds.
func (g *Grid) invalidateTimeline() {
	g.tlMu.Lock()
	g.tlValid = false
	g.tlTimes = nil
	g.tlMasks = nil
	g.tlGen.Add(1)
	g.tlMu.Unlock()
}

// maskIntervalAt returns the mask at t together with the half-open
// interval [start, end) over which that mask holds and the timeline
// generation the bounds belong to. Negative instants (before the
// simulated calendar) fall back to a direct schedule walk with an empty
// interval, so callers never cache them.
func (g *Grid) maskIntervalAt(t time.Duration) (mask uint64, start, end time.Duration, gen uint64) {
	if t < 0 {
		return g.StateMask(t), 1, 0, g.tlGen.Load()
	}
	g.tlMu.Lock()
	defer g.tlMu.Unlock()
	// Restart the horizon on first use, when t falls before it, when t
	// jumps more than a chunk past it (extending across the dead span
	// would enumerate transitions nothing will read), or when a long
	// scan has accumulated too much history. A restart never bumps the
	// generation: the mask function itself is unchanged, so intervals
	// cached by links remain true.
	if !g.tlValid || t < g.tlFrom || t >= g.tlTo+timelineChunk || len(g.tlTimes) > timelineMaxLen {
		g.tlValid = true
		g.tlFrom = t
		g.tlTo = t + timelineChunk
		g.tlMask0 = g.StateMask(t)
		g.tlTimes, g.tlMasks = g.enumerate(t, g.tlTo, g.tlMask0)
	} else if t >= g.tlTo {
		// Extend the horizon by one chunk; existing intervals stay
		// valid, so the generation does not change.
		last := g.tlMask0
		if n := len(g.tlMasks); n > 0 {
			last = g.tlMasks[n-1]
		}
		newTo := g.tlTo + timelineChunk
		times, masks := g.enumerate(g.tlTo, newTo, last)
		g.tlTimes = append(g.tlTimes, times...)
		g.tlMasks = append(g.tlMasks, masks...)
		g.tlTo = newTo
	}
	// Greatest transition at or before t.
	i := sort.Search(len(g.tlTimes), func(i int) bool { return g.tlTimes[i] > t }) - 1
	if i < 0 {
		mask, start = g.tlMask0, g.tlFrom
	} else {
		mask, start = g.tlMasks[i], g.tlTimes[i]
	}
	end = g.tlTo
	if i+1 < len(g.tlTimes) {
		end = g.tlTimes[i+1]
	}
	return mask, start, end, g.tlGen.Load()
}
