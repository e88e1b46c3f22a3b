package grid

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/mains"
)

// driftGrid builds a cable run crowded with RandomDuty appliances, so the
// appliance mask churns on nearly every 10-minute cell — the worst case
// for incremental channel updates.
func driftGrid() *Grid {
	g := New(DefaultConfig())
	prev := g.AddNode(0, 0, 0)
	for i := 1; i <= 8; i++ {
		cur := g.AddNode(float64(i)*7, 0, 0)
		g.AddCable(prev, cur, 7)
		prev = cur
	}
	classes := []*ApplianceClass{ClassPhoneCharger, ClassKettle, ClassLabEquipment}
	for i := 0; i <= 8; i++ {
		g.Plug(classes[i%3], NodeID(i))
		g.Plug(classes[(i+1)%3], NodeID(i))
	}
	return g
}

// marchEpochs drives the link through per-cell mask changes and returns
// the number of distinct epochs seen and the final instant.
func marchEpochs(l *Link, steps int) (epochs int, end time.Duration) {
	var last uint64
	seen := false
	for step := 0; step < steps; step++ {
		end = time.Duration(step) * randomDutyCell
		e := l.Advance(end)
		if !seen || e != last {
			epochs++
			last, seen = e, true
		}
	}
	return epochs, end
}

// TestToggleDriftVsRebuild is the regression guard for incremental channel
// updates: after thousands of toggle epochs the incrementally maintained
// SNR must stay within a tight tolerance of a from-scratch rebuild at the
// same mask. The measured drift is ulp-scale (the toggle deltas are exact
// reversals over shared immutable phasors), which is why the incremental
// state is never periodically rebuilt; this test pins that assumption.
func TestToggleDriftVsRebuild(t *testing.T) {
	g := driftGrid()
	freqs := testFreqs()
	inc := g.NewLink(0, 8, freqs)
	epochs, end := marchEpochs(inc, 5000)
	if epochs < 500 {
		t.Fatalf("mask churn too low to exercise drift: %d epochs", epochs)
	}

	fresh := g.NewLink(0, 8, freqs)
	fresh.Advance(end)

	var worst float64
	for s := 0; s < mains.Slots; s++ {
		a, b := inc.SNRBase(s), fresh.SNRBase(s)
		for c := range a {
			if d := math.Abs(a[c] - b[c]); d > worst {
				worst = d
			}
		}
	}
	t.Logf("epochs %d, worst incremental-vs-rebuild drift %.3g dB", epochs, worst)
	if worst > 1e-9 {
		t.Fatalf("incremental updates drifted %.3g dB from rebuild after %d epochs (tolerance 1e-9)", worst, epochs)
	}
}

// TestPlaneSharedAcrossLinks: links over one carrier plan share one plane,
// one mask timeline, and the receiver-site noise geometry — while epoch
// counters stay per-link monotonic (a shared per-mask id would alias a
// revisited mask against incrementally-drifted link state).
func TestPlaneSharedAcrossLinks(t *testing.T) {
	g := officeGrid()
	freqs := testFreqs()
	a := g.NewLink(0, 10, freqs)
	b := g.NewLink(10, 0, freqs)
	c := g.NewLink(5, 10, freqs)
	if a.p != b.p || a.p != c.p {
		t.Fatal("links over one carrier plan must share the channel plane")
	}
	noon := 12 * time.Hour
	a.Advance(noon)
	c.Advance(noon)
	if a.mask != c.mask {
		t.Fatalf("shared mask timeline diverged: %x vs %x", a.mask, c.mask)
	}
	if a.site != c.site {
		t.Fatal("links towards one receiver must share the rx noise site")
	}
	if a.site == b.site {
		t.Fatal("opposite directions have different receivers, must not share a site")
	}
	// The epoch is stable while the mask is: re-advancing at the same
	// instant must return the same counter.
	if a.Advance(noon) != a.Advance(noon) {
		t.Fatal("epoch advanced without a mask change")
	}
	// And it must advance on every transition this link applies, even a
	// revisit of an earlier mask — per-epoch caches key on it.
	e0 := a.Advance(noon)
	var revisit time.Duration
	for tt := noon; tt < noon+24*time.Hour; tt += 10 * time.Minute {
		if g.StateMask(tt) != a.mask {
			a.Advance(tt)
			revisit = tt
			break
		}
	}
	if revisit == 0 {
		t.Fatal("no mask transition within a day")
	}
	if e1 := a.Advance(revisit); e1 <= e0 {
		t.Fatalf("epoch must be strictly monotonic across transitions: %d then %d", e0, e1)
	}
}

// TestConcurrentLinksShareOnePlane: distinct links of one grid may be
// driven from different goroutines (al.Watch spawns one per watched
// link); the plane's shared caches must tolerate that. Run under -race
// in CI, this pins the locking of maskAt/ShiftDB/lazy materialisation.
func TestConcurrentLinksShareOnePlane(t *testing.T) {
	g := officeGrid()
	freqs := testFreqs()
	links := []*Link{
		g.NewLink(0, 10, freqs),
		g.NewLink(10, 0, freqs),
		g.NewLink(5, 9, freqs),
	}
	var wg sync.WaitGroup
	for _, l := range links {
		wg.Add(1)
		go func(l *Link) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tt := 12*time.Hour + time.Duration(i)*7*time.Second
				l.Advance(tt)
				l.ShiftDB(tt)
				l.SNRBase(i % mains.Slots)
			}
		}(l)
	}
	wg.Wait()
}

// TestMaskAtMatchesStateMask: the plane's timeline-served mask equals a
// direct schedule evaluation at arbitrary instants (including repeated
// reads, which come from the cached transition interval).
func TestMaskAtMatchesStateMask(t *testing.T) {
	g := officeGrid()
	p := g.planeFor(testFreqs())
	for _, tt := range []time.Duration{0, 7 * time.Hour, 12*time.Hour + 13*time.Second, 26 * time.Hour, 100 * time.Hour} {
		if p.maskAt(tt) != g.StateMask(tt) {
			t.Fatalf("timeline mask diverged at %v", tt)
		}
		// Second read is served from the built horizon and must agree too.
		if p.maskAt(tt) != g.StateMask(tt) {
			t.Fatalf("cached timeline mask diverged at %v", tt)
		}
	}
}

// sparseGrid builds two electrically disconnected segments: a quiet
// station run (always-on infrastructure only) and a switching-heavy
// island. Every transition the timeline reports comes from the island,
// so the station links' dirty sets are empty at every one of them.
func sparseGrid() *Grid {
	g := New(DefaultConfig())
	prev := g.AddNode(0, 0, 0)
	for i := 1; i <= 4; i++ {
		cur := g.AddNode(float64(i)*8, 0, 0)
		g.AddCable(prev, cur, 8)
		prev = cur
	}
	g.Plug(ClassRouter, 2)
	g.Plug(ClassServerRack, 4)
	island := g.AddNode(0, 60, 1)
	for k := 0; k < 6; k++ {
		cur := g.AddNode(float64(k)*5, 65, 1)
		g.AddCable(island, cur, 5)
		g.Plug(ClassPhoneCharger, cur)
		g.Plug(ClassKettle, cur)
		island = cur
	}
	return g
}

// TestDirtySkipDisconnectedExact is the dirty-tracking property test for
// the untouched side: a link whose reachable appliance set no transition
// intersects must (a) keep its epoch pinned across every transition and
// (b) stay bit-identical to a from-scratch rebuild at every one of them
// — reuse is exact, not approximate.
func TestDirtySkipDisconnectedExact(t *testing.T) {
	g := sparseGrid()
	freqs := testFreqs()
	l := g.NewLink(0, 4, freqs)
	from, to := 10*time.Hour, 16*time.Hour
	trs := g.MaskTransitions(from, to)
	if len(trs) < 10 {
		t.Fatalf("island churn too low: %d transitions", len(trs)-1)
	}
	e0 := l.Advance(from)
	l.SNRBase(0) // materialise up front so every transition hits the live path
	for _, tr := range trs[1:] {
		if e := l.Advance(tr.At); e != e0 {
			t.Fatalf("epoch moved to %d on an unreachable transition at %v", e, tr.At)
		}
		if l.mask != tr.Mask {
			t.Fatalf("skipped transition must still track the mask: %x vs %x", l.mask, tr.Mask)
		}
		fresh := g.NewLink(0, 4, freqs)
		fresh.Advance(tr.At)
		for s := 0; s < mains.Slots; s++ {
			a, b := l.SNRBase(s), fresh.SNRBase(s)
			for c := range a {
				if a[c] != b[c] {
					t.Fatalf("at %v slot %d carrier %d: reused %v != rebuilt %v", tr.At, s, c, a[c], b[c])
				}
			}
		}
		if a, b := l.ShiftDB(tr.At), fresh.ShiftDB(tr.At); a != b {
			t.Fatalf("at %v: reused shift %v != rebuilt %v", tr.At, a, b)
		}
	}
}

// TestLazyReplayMatchesEagerExact is the dirty-tracking property test
// for the replay machinery: a link that records a random toggle sequence
// unmaterialised and replays it on first read must be bit-identical to a
// link that materialised up front and applied every transition eagerly —
// at every prefix of the sequence, not just the end.
func TestLazyReplayMatchesEagerExact(t *testing.T) {
	g := driftGrid()
	freqs := testFreqs()
	eager := g.NewLink(0, 8, freqs)

	// A pseudo-random march across duty cells (mask churn on most steps).
	r := lcg(42)
	steps := make([]time.Duration, 120)
	cur := 9 * time.Hour
	for i := range steps {
		cur += r.randDur(time.Minute, 25*time.Minute)
		steps[i] = cur
	}

	eager.Advance(steps[0])
	eager.SNRBase(0) // materialise immediately: the historical eager path
	for k, tt := range steps {
		eager.Advance(tt)
		eager.SNRBase(k % mains.Slots) // keep every toggle applied live

		if k%17 != 0 {
			continue
		}
		// A fresh link replays the same prefix lazily and must land on
		// bit-identical state once its first read forces materialisation.
		lazy := g.NewLink(0, 8, freqs)
		for _, pt := range steps[:k+1] {
			lazy.Advance(pt)
		}
		if lazy.epoch != eager.epoch {
			t.Fatalf("prefix %d: lazy epoch %d != eager %d", k, lazy.epoch, eager.epoch)
		}
		for s := 0; s < mains.Slots; s++ {
			a, b := lazy.SNRBase(s), eager.SNRBase(s)
			for c := range a {
				if a[c] != b[c] {
					t.Fatalf("prefix %d slot %d carrier %d: lazy %v != eager %v", k, s, c, a[c], b[c])
				}
			}
		}
	}
}

// TestSharedCoreMaterializationOrder: a symmetric pair shares one core
// between its two directions; which direction materialises the shared
// phasors first must not change a single bit of either direction's
// state.
func TestSharedCoreMaterializationOrder(t *testing.T) {
	build := func() *Grid {
		g := New(DefaultConfig())
		s0 := g.AddNode(0, 0, 0)
		s1 := g.AddNode(8, 0, 0)
		s2 := g.AddNode(16, 0, 0)
		g.AddCable(s0, s1, 8)
		g.AddCable(s1, s2, 8)
		g.Plug(ClassDesktopPC, s1)
		g.Plug(ClassKettle, s1)
		g.Plug(ClassPhoneCharger, s2)
		return g
	}
	freqs := testFreqs()
	read := func(g *Grid, matFwdFirst bool) ([]float64, []float64) {
		f := g.NewLink(0, 2, freqs)
		r := g.NewLink(2, 0, freqs)
		if f.pg != r.pg {
			t.Fatal("symmetric pair must share one geometry core")
		}
		tt := 11 * time.Hour
		f.Advance(tt)
		r.Advance(tt)
		if matFwdFirst {
			f.SNRBase(0)
			r.SNRBase(0)
		} else {
			r.SNRBase(0)
			f.SNRBase(0)
		}
		fa := append([]float64(nil), f.SNRBase(0)...)
		ra := append([]float64(nil), r.SNRBase(0)...)
		return fa, ra
	}
	g1, g2 := build(), build()
	f1, r1 := read(g1, true)
	f2, r2 := read(g2, false)
	for c := range f1 {
		if f1[c] != f2[c] || r1[c] != r2[c] {
			t.Fatalf("carrier %d: materialisation order changed link state", c)
		}
	}
}

// TestPairGeometrySharing: a bitwise-symmetric pair shares one appliance
// geometry core between its two directions; an asymmetric chain (cable
// sums that depend on accumulation order) falls back to one core per
// direction rather than trading bit-exactness.
func TestPairGeometrySharing(t *testing.T) {
	sym := New(DefaultConfig())
	s0 := sym.AddNode(0, 0, 0)
	s1 := sym.AddNode(8, 0, 0)
	s2 := sym.AddNode(16, 0, 0)
	sym.AddCable(s0, s1, 8)
	sym.AddCable(s1, s2, 8)
	sym.Plug(ClassDesktopPC, s1)
	freqs := testFreqs()
	f := sym.NewLink(s0, s2, freqs)
	r := sym.NewLink(s2, s0, freqs)
	if f.pg != r.pg {
		t.Fatal("bitwise-symmetric pair must share one geometry core")
	}

	asym := New(DefaultConfig())
	nodes := []NodeID{asym.AddNode(0, 0, 0)}
	lens := []float64{0.1, 0.2, 0.3}
	for i, ln := range lens {
		n := asym.AddNode(float64(i+1), 0, 0)
		asym.AddCable(nodes[len(nodes)-1], n, ln)
		nodes = append(nodes, n)
	}
	asym.Plug(ClassDesktopPC, nodes[1])
	a, b := nodes[0], nodes[3]
	if asym.Dist(a, b) == asym.Dist(b, a) {
		t.Skip("distances happen to be bitwise symmetric on this platform")
	}
	fa := asym.NewLink(a, b, freqs)
	ra := asym.NewLink(b, a, freqs)
	if fa.pg == ra.pg {
		t.Fatal("bitwise-asymmetric pair must not share a geometry core")
	}
	// Re-requesting a direction reuses its cached core.
	if again := asym.NewLink(a, b, freqs); again.pg != fa.pg {
		t.Fatal("repeated link construction must reuse the cached core")
	}
}
