package plc

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/mains"
	"repro/internal/plc/mac"
)

// smallTestbed builds a 6-station office bus: stations at nodes 0..5 with
// 12 m spacing, some appliances in between.
func smallTestbed(t *testing.T) (*Deployment, *grid.Grid) {
	t.Helper()
	g := grid.New(grid.DefaultConfig())
	prev := g.AddNode(0, 0, 0)
	for i := 1; i < 6; i++ {
		cur := g.AddNode(float64(i)*12, 0, 0)
		g.AddCable(prev, cur, 12)
		prev = cur
	}
	g.Plug(grid.ClassDesktopPC, 1)
	g.Plug(grid.ClassFluorescent, 2)
	g.Plug(grid.ClassFridge, 3)
	g.Plug(grid.ClassPhoneCharger, 4)

	d := NewDeployment(g, DefaultConfig())
	for i := 0; i < 6; i++ {
		d.AddStation(grid.NodeID(i), 0)
	}
	d.SetCCo(d.Stations[0])
	return d, g
}

func TestNetworkIsolation(t *testing.T) {
	g := grid.New(grid.DefaultConfig())
	a := g.AddNode(0, 0, 0)
	b := g.AddNode(10, 0, 0)
	g.AddCable(a, b, 10)
	d := NewDeployment(g, DefaultConfig())
	s1 := d.AddStation(a, 0)
	s2 := d.AddStation(b, 1) // different AVLN
	if _, err := d.Link(s1, s2); err == nil {
		t.Fatal("cross-network link must be refused")
	}
	if _, err := d.Link(s1, s1); err == nil {
		t.Fatal("self link must be refused")
	}
}

func TestSetCCoUnique(t *testing.T) {
	d, _ := smallTestbed(t)
	d.SetCCo(d.Stations[3])
	count := 0
	for _, s := range d.Stations {
		if s.CCo {
			count++
		}
	}
	if count != 1 || !d.Stations[3].CCo {
		t.Fatalf("CCo count = %d", count)
	}
}

func TestPairsCount(t *testing.T) {
	d, _ := smallTestbed(t)
	if got := len(d.Pairs()); got != 30 {
		t.Fatalf("pairs = %d, want 6*5", got)
	}
}

func TestSaturatedLinkProducesThroughput(t *testing.T) {
	d, _ := smallTestbed(t)
	l, err := d.Link(d.Stations[0], d.Stations[2])
	if err != nil {
		t.Fatal(err)
	}
	start := 22 * time.Hour // quiet night channel
	l.Saturate(start, start+30*time.Second, 100*time.Millisecond)
	tp := l.Throughput(start + 30*time.Second)
	if tp < 40 {
		t.Fatalf("short clean link throughput = %.1f Mb/s, want good link", tp)
	}
	ble := l.AvgBLE()
	if r := ble / tp; r < 1.4 || r > 2.1 {
		t.Fatalf("BLE/T = %.2f, want ≈1.7 (Fig. 15)", r)
	}
}

func TestLinkCacheReuse(t *testing.T) {
	d, _ := smallTestbed(t)
	l1, _ := d.Link(d.Stations[0], d.Stations[1])
	l2, _ := d.Link(d.Stations[0], d.Stations[1])
	if l1 != l2 {
		t.Fatal("links must be cached per (src,dst)")
	}
	rev, _ := d.Link(d.Stations[1], d.Stations[0])
	if rev == l1 {
		t.Fatal("reverse direction must be a distinct link")
	}
}

func TestMMRateLimit(t *testing.T) {
	d, _ := smallTestbed(t)
	s := d.Stations[0]
	l, _ := d.Link(s, d.Stations[1])
	l.Saturate(0, time.Second, 100*time.Millisecond)
	if _, err := s.QueryBLE(time.Second, l); err != nil {
		t.Fatalf("first MM failed: %v", err)
	}
	if _, err := s.QueryBLE(time.Second+10*time.Millisecond, l); err == nil {
		t.Fatal("MM faster than 50 ms must fail")
	}
	if _, err := s.QueryPBerr(time.Second+MMMinInterval, l); err != nil {
		t.Fatalf("MM at the 50 ms limit must pass: %v", err)
	}
}

func TestSnifferSeesSlotCycle(t *testing.T) {
	d, _ := smallTestbed(t)
	l, _ := d.Link(d.Stations[0], d.Stations[2])
	var sofs []mac.SoF
	l.Saturate(0, 5*time.Second, 100*time.Millisecond) // warm up tone maps
	l.Sniffer = func(s mac.SoF) { sofs = append(sofs, s) }
	l.Saturate(5*time.Second, 5*time.Second+200*time.Millisecond, 50*time.Millisecond)
	if len(sofs) < 20 {
		t.Fatalf("sniffer captured %d frames, want a saturated stream", len(sofs))
	}
	slotSeen := map[int]bool{}
	for _, s := range sofs {
		if s.Slot != mains.SlotAt(s.Timestamp) {
			t.Fatal("SoF slot does not match its timestamp")
		}
		slotSeen[s.Slot] = true
		if s.BLEs <= 0 {
			t.Fatal("SoF carries no BLE")
		}
	}
	if len(slotSeen) < 4 {
		t.Fatalf("saturated capture should cycle through slots: saw %d", len(slotSeen))
	}
}

func TestUnicastTransmissionsTrackPBerr(t *testing.T) {
	d, _ := smallTestbed(t)
	good, _ := d.Link(d.Stations[0], d.Stations[1])
	good.Saturate(0, 30*time.Second, 100*time.Millisecond)

	rng := rand.New(rand.NewSource(1))
	u := func() float64 { return rng.Float64() }
	total := 0
	n := 200
	for i := 0; i < n; i++ {
		r := good.SendUnicast(30*time.Second+time.Duration(i)*75*time.Millisecond, 1500, u)
		total += r.Transmissions
	}
	uetx := float64(total) / float64(n)
	if uetx < 1.0 || uetx > 1.5 {
		t.Fatalf("good-link U-ETX = %.2f, want ≈1", uetx)
	}
	// Analytic consistency.
	pb := good.PBerr(45 * time.Second)
	want := mac.ExpectedFrameTransmissions(pb, 3)
	if math.Abs(uetx-want) > 0.4 {
		t.Fatalf("sampled U-ETX %.2f vs analytic %.2f", uetx, want)
	}
}

func TestBroadcastLossLowOnUsableLinks(t *testing.T) {
	d, _ := smallTestbed(t)
	l, _ := d.Link(d.Stations[0], d.Stations[3])
	p := l.BroadcastLossProbability(22 * time.Hour)
	if p > 0.01 {
		t.Fatalf("ROBO broadcast loss on a usable link = %v, want tiny (§8.1)", p)
	}
}

// TestResetClearsEstimation: the estimator reset the convergence
// harnesses (Figs. 16-18) perform before each trial discards what the
// link had learnt.
func TestResetClearsEstimation(t *testing.T) {
	d, _ := smallTestbed(t)
	l, _ := d.Link(d.Stations[0], d.Stations[4])
	l.Saturate(0, time.Minute, 100*time.Millisecond)
	converged := l.AvgBLE()
	l.Est.Reset()
	l.Probe(2*time.Minute+time.Second, 1300, 1)
	fresh := l.AvgBLE()
	if fresh >= converged*0.95 {
		t.Fatalf("reset did not discard convergence: %.1f -> %.1f", converged, fresh)
	}
}

func TestAsymmetricPairExists(t *testing.T) {
	// Across the testbed some pair should show >1.5x throughput
	// asymmetry during working hours (§5: ~30% of pairs in the paper).
	d, _ := smallTestbed(t)
	start := 13 * time.Hour
	found := false
	for _, p := range d.Pairs() {
		if p[0].ID > p[1].ID {
			continue
		}
		fwd, _ := d.Link(p[0], p[1])
		rev, _ := d.Link(p[1], p[0])
		fwd.Saturate(start, start+10*time.Second, 200*time.Millisecond)
		rev.Saturate(start, start+10*time.Second, 200*time.Millisecond)
		a := fwd.Throughput(start + 10*time.Second)
		b := rev.Throughput(start + 10*time.Second)
		if a > 1 && b > 1 && (a/b > 1.5 || b/a > 1.5) {
			found = true
			break
		}
	}
	if !found {
		t.Log("no strongly asymmetric pair in the small testbed (acceptable; full testbed asserts this)")
	}
}

func BenchmarkSaturateLink(b *testing.B) {
	g := grid.New(grid.DefaultConfig())
	prev := g.AddNode(0, 0, 0)
	for i := 1; i < 6; i++ {
		cur := g.AddNode(float64(i)*12, 0, 0)
		g.AddCable(prev, cur, 12)
		prev = cur
	}
	g.Plug(grid.ClassDesktopPC, 1)
	g.Plug(grid.ClassFluorescent, 2)
	d := NewDeployment(g, DefaultConfig())
	for i := 0; i < 6; i++ {
		d.AddStation(grid.NodeID(i), 0)
	}
	l, _ := d.Link(d.Stations[0], d.Stations[4])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Duration(i) * time.Second
		l.Saturate(t0, t0+time.Second, 100*time.Millisecond)
	}
}
