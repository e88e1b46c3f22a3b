package al_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/al"
	"repro/internal/core"
	"repro/internal/plc/phy"
	"repro/internal/testbed"
	"repro/internal/wifi"
)

// rig builds the cheap two-station isolated cable for adapter tests.
func rig(t testing.TB, lengthM float64) *testbed.Testbed {
	t.Helper()
	return testbed.NewIsolatedRig(lengthM, 1, phy.AV, nil)
}

func TestPLCAdapter(t *testing.T) {
	tb := rig(t, 30)
	raw, err := tb.PLCLink(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	l := al.NewPLC(raw)
	if src, dst := l.Endpoints(); src != 0 || dst != 1 {
		t.Fatalf("endpoints = %d,%d", src, dst)
	}
	if l.Medium() != core.PLC {
		t.Fatalf("medium = %v", l.Medium())
	}
	if !l.Connected(0) {
		t.Fatal("in-network PLC link must be connected")
	}
	// Estimation is traffic-driven: probe, then read a positive capacity.
	if err := al.Probe(context.Background(), l, time.Hour, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	at := time.Hour + 2*time.Second
	if c := l.Capacity(at); c <= 0 {
		t.Fatalf("capacity after probing = %v", c)
	}
	m := l.Metrics(at)
	if m.Medium != core.PLC || m.CapacityMbps <= 0 || m.UpdatedAt != at {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Loss < 0 || m.Loss > 1 {
		t.Fatalf("loss out of range: %v", m.Loss)
	}
	if g := l.Goodput(at); g <= 0 {
		t.Fatalf("goodput = %v", g)
	}
}

func TestPLCCapacityProbeOption(t *testing.T) {
	tb := rig(t, 30)
	raw, err := tb.PLCLink(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// No warm-up at all: the capacity query itself must drive estimation.
	l := al.NewPLC(raw, al.WithCapacityProbe(1300, 1))
	if c := l.Capacity(time.Hour); c <= 0 {
		t.Fatalf("self-probing capacity = %v", c)
	}
}

func TestProbeHonoursCancellation(t *testing.T) {
	tb := rig(t, 30)
	raw, err := tb.PLCLink(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := al.Probe(ctx, al.NewPLC(raw), 0, time.Minute); err == nil {
		t.Fatal("cancelled probe must error")
	}
}

func TestWiFiAdapterAndBlindSpot(t *testing.T) {
	near, far := rig(t, 10), rig(t, 60)
	nl := al.NewWiFi(0, 1, wifi.NewLink(near.Grid, near.Stations[0].Node, near.Stations[1].Node, 1))
	fl := al.NewWiFi(0, 1, wifi.NewLink(far.Grid, far.Stations[0].Node, far.Stations[1].Node, 1))
	if nl.Medium() != core.WiFi {
		t.Fatalf("medium = %v", nl.Medium())
	}
	if !nl.Connected(0) {
		t.Fatal("10 m WiFi link must be connected")
	}
	if fl.Connected(0) {
		t.Fatal("60 m WiFi link is past the ~35 m blind spot")
	}
	if err := al.Probe(context.Background(), nl, 23*time.Hour, time.Second); err != nil {
		t.Fatal(err)
	}
	at := 23*time.Hour + time.Second
	if c := nl.Capacity(at); c <= 0 {
		t.Fatalf("near capacity = %v", c)
	}
	m := nl.Metrics(at)
	if m.Medium != core.WiFi || m.CapacityMbps <= 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestWatchStreamsAndCancels(t *testing.T) {
	tb := rig(t, 20)
	raw, err := tb.PLCLink(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := al.Watch(ctx, al.NewPLC(raw), time.Hour, 200*time.Millisecond)
	var got []al.Sample
	for s := range ch {
		got = append(got, s)
		if len(got) == 3 {
			cancel()
		}
		if len(got) > 3 {
			break
		}
	}
	if len(got) < 3 {
		t.Fatalf("watch yielded %d samples", len(got))
	}
	for i, s := range got[:3] {
		want := time.Hour + time.Duration(i+1)*200*time.Millisecond
		if s.At != want {
			t.Fatalf("sample %d at %v, want %v", i, s.At, want)
		}
		if s.Metrics.CapacityMbps <= 0 {
			t.Fatalf("sample %d has no capacity: %+v", i, s.Metrics)
		}
	}
}

// failingLink probes successfully okProbes times, then fails.
type failingLink struct {
	fakeLink
	okProbes int
	probeErr error
}

func (f *failingLink) Probe(ctx context.Context, t, dur time.Duration) error {
	if f.okProbes > 0 {
		f.okProbes--
		return ctx.Err()
	}
	return f.probeErr
}

func TestWatchSurfacesProbeFailure(t *testing.T) {
	// Regression: Watch used to swallow non-cancellation probe errors —
	// the channel just closed, indistinguishable from a clean shutdown.
	probeErr := errors.New("modem gone")
	fl := &failingLink{fakeLink: fakeLink{0, 1, core.PLC, 50}, okProbes: 2, probeErr: probeErr}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []al.Sample
	for s := range al.Watch(ctx, fl, 0, 100*time.Millisecond) {
		got = append(got, s)
	}
	if len(got) != 3 {
		t.Fatalf("samples = %d, want 2 good + 1 failure", len(got))
	}
	for _, s := range got[:2] {
		if s.Err != nil {
			t.Fatalf("healthy sample carries error: %+v", s)
		}
	}
	last := got[2]
	if !errors.Is(last.Err, probeErr) {
		t.Fatalf("final sample error = %v, want the probe failure", last.Err)
	}
}

func TestWatchCancellationClosesWithoutError(t *testing.T) {
	tb := rig(t, 20)
	raw, err := tb.PLCLink(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := al.Watch(ctx, al.NewPLC(raw), time.Hour, 200*time.Millisecond)
	n := 0
	for s := range ch {
		if s.Err != nil {
			t.Fatalf("cancellation must not surface as a failure sample: %v", s.Err)
		}
		n++
		if n == 2 {
			cancel()
		}
	}
	if n < 2 {
		t.Fatalf("watch yielded %d samples before cancel", n)
	}
}

func TestTableLink(t *testing.T) {
	mt := core.NewMetricTable()
	mt.Update(0, 1, core.LinkMetrics{Medium: core.PLC, CapacityMbps: 80, Loss: 0.02})
	l := al.TableLink{Table: mt, Src: 0, Dst: 1}
	if c := l.Capacity(0); c != 80 {
		t.Fatalf("capacity = %v", c)
	}
	if g := l.Goodput(0); g != 80 {
		t.Fatalf("goodput = %v", g)
	}
	if !l.Connected(0) || l.Medium() != core.PLC {
		t.Fatal("entry-backed link must be connected with its medium")
	}
	missing := al.TableLink{Table: mt, Src: 3, Dst: 4}
	if missing.Capacity(0) != 0 || missing.Connected(0) {
		t.Fatal("missing entry must read as a dead link")
	}
	// Probe on a table-backed link is a successful no-op.
	if err := al.Probe(context.Background(), l, 0, time.Second); err != nil {
		t.Fatal(err)
	}
}

// fakeLink is a minimal Link for topology bookkeeping tests.
type fakeLink struct {
	src, dst int
	med      core.Medium
	cap      float64
}

func (f fakeLink) Endpoints() (int, int)          { return f.src, f.dst }
func (f fakeLink) Medium() core.Medium            { return f.med }
func (f fakeLink) Capacity(time.Duration) float64 { return f.cap }
func (f fakeLink) Goodput(time.Duration) float64  { return f.cap }
func (f fakeLink) Connected(time.Duration) bool   { return f.cap > 0 }
func (f fakeLink) Metrics(t time.Duration) core.LinkMetrics {
	return core.LinkMetrics{Medium: f.med, CapacityMbps: f.cap, UpdatedAt: t}
}

func TestTopologyViews(t *testing.T) {
	tp := al.NewTopology()
	tp.Add(fakeLink{0, 1, core.PLC, 50})
	tp.Add(fakeLink{0, 1, core.WiFi, 80})
	tp.Add(fakeLink{1, 0, core.PLC, 40})
	tp.Add(fakeLink{0, 2, core.WiFi, 20})

	if got := len(tp.Links()); got != 4 {
		t.Fatalf("links = %d", got)
	}
	if got := tp.Stations(); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("stations = %v", got)
	}
	if got := tp.Between(0, 1); len(got) != 2 || got[0].Medium() != core.PLC || got[1].Medium() != core.WiFi {
		t.Fatalf("between(0,1) = %v", got)
	}
	n := tp.Node(0)
	if got := n.Links(); len(got) != 3 {
		t.Fatalf("node 0 links = %d", len(got))
	}
	if l, ok := n.Link(core.WiFi, 2); !ok || l.Capacity(0) != 20 {
		t.Fatal("node link lookup failed")
	}
	if _, ok := n.Link(core.PLC, 2); ok {
		t.Fatal("no PLC link to 2 exists")
	}

	mt := core.NewMetricTable()
	tp.Feed(mt, time.Minute)
	if mt.Len() != 3 { // 0→1 written twice (one per medium), 1→0, 0→2
		t.Fatalf("table entries = %d", mt.Len())
	}
	if m, ok := mt.Lookup(0, 1); !ok || m.Medium != core.WiFi || m.UpdatedAt != time.Minute {
		t.Fatalf("0→1 entry = %+v %v", m, ok)
	}
}
