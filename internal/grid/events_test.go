package grid

import (
	"sort"
	"testing"
	"time"
)

// lcg is a tiny deterministic generator for property-test instants (the
// tests must not depend on wall-clock randomness).
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

// randDur returns a pseudo-random instant in [lo, hi).
func (r *lcg) randDur(lo, hi time.Duration) time.Duration {
	span := uint64(hi - lo)
	return lo + time.Duration(r.next()%span)
}

// TestMaskTransitionsExact: the enumerated timeline over a working week
// agrees with a direct StateMask evaluation everywhere — at every
// transition instant, one nanosecond before it, and at random instants
// in between. This is the exactness proof of the candidates-then-confirm
// construction: a mask change can only happen at a candidate instant, so
// confirmed transitions tile the window.
func TestMaskTransitionsExact(t *testing.T) {
	g := officeGrid()
	from, to := 6*time.Hour, 6*time.Hour+3*Day
	trs := g.MaskTransitions(from, to)
	if trs[0].At != from || trs[0].Mask != g.StateMask(from) {
		t.Fatalf("first element must carry the mask at from: %+v", trs[0])
	}
	if len(trs) < 20 {
		t.Fatalf("office week enumerated only %d transitions — schedule candidates missing?", len(trs)-1)
	}
	for i, tr := range trs[1:] {
		if tr.At <= trs[i].At {
			t.Fatalf("transitions not strictly ordered: %v then %v", trs[i].At, tr.At)
		}
		if got := g.StateMask(tr.At); got != tr.Mask {
			t.Fatalf("transition %d at %v: recorded mask %x, StateMask %x", i+1, tr.At, tr.Mask, got)
		}
		if got := g.StateMask(tr.At - time.Nanosecond); got != trs[i].Mask {
			t.Fatalf("mask moved before the recorded transition at %v: %x vs %x", tr.At, got, trs[i].Mask)
		}
	}
	// Random instants: the mask holding per the timeline equals StateMask.
	r := lcg(1)
	for k := 0; k < 400; k++ {
		tt := r.randDur(from, to)
		i := sort.Search(len(trs), func(i int) bool { return trs[i].At > tt }) - 1
		if got := g.StateMask(tt); got != trs[i].Mask {
			t.Fatalf("at %v: timeline mask %x, StateMask %x", tt, trs[i].Mask, got)
		}
	}
}

// TestMaskIntervalAtMatchesStateMask: the lazily extended horizon behind
// maskIntervalAt serves the same masks as a direct schedule walk, across
// in-chunk queries, chunk extensions, far jumps (horizon restarts) and
// backwards jumps.
func TestMaskIntervalAtMatchesStateMask(t *testing.T) {
	g := officeGrid()
	r := lcg(7)
	// Mixed access pattern: mostly forward-local, sometimes far away.
	cur := 9 * time.Hour
	for k := 0; k < 600; k++ {
		switch k % 7 {
		case 3:
			cur = r.randDur(0, 2*Week) // far jump
		case 5:
			if cur > time.Hour {
				cur -= r.randDur(0, time.Hour) // backwards
			}
		default:
			cur += r.randDur(0, 20*time.Minute)
		}
		mask, start, end, _ := g.maskIntervalAt(cur)
		if want := g.StateMask(cur); mask != want {
			t.Fatalf("at %v: interval mask %x, StateMask %x", cur, mask, want)
		}
		if start < end {
			// The mask must be constant over the reported interval.
			for _, probe := range []time.Duration{start, (start + end) / 2, end - time.Nanosecond} {
				if got := g.StateMask(probe); got != mask {
					t.Fatalf("interval [%v,%v) not constant: mask %x at %v vs %x", start, end, got, probe, mask)
				}
			}
		}
	}
}

// TestMaskIntervalNegativeTime: instants before the simulated calendar
// fall back to a direct walk with an uncacheable (empty) interval.
func TestMaskIntervalNegativeTime(t *testing.T) {
	g := officeGrid()
	mask, start, end, _ := g.maskIntervalAt(-3 * time.Hour)
	if want := g.StateMask(-3 * time.Hour); mask != want {
		t.Fatalf("negative-time mask %x, StateMask %x", mask, want)
	}
	if start < end {
		t.Fatalf("negative-time interval must be empty, got [%v, %v)", start, end)
	}
}

// TestTimelineInvalidationOnPlug: plugging an appliance changes the mask
// function, so the timeline generation must move and links must observe
// the new population on their next Advance even at a cached instant.
func TestTimelineInvalidationOnPlug(t *testing.T) {
	g := officeGrid()
	l := g.NewLink(0, 10, testFreqs())
	noon := 12 * time.Hour
	l.Advance(noon)
	gen := g.tlGen.Load()
	g.Plug(ClassRouter, 3) // always-on: flips its mask bit immediately
	if g.tlGen.Load() == gen {
		t.Fatal("Plug must bump the timeline generation")
	}
	l.Advance(noon)
	if l.mask != g.StateMask(noon) {
		t.Fatalf("link mask %x stale after Plug; StateMask %x", l.mask, g.StateMask(noon))
	}
}
