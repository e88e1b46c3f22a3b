package testbed

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/plc/phy"
)

func buildAV(t *testing.T) *Testbed {
	t.Helper()
	return New(Options{Spec: phy.AV, Decimate: 8, Seed: 1})
}

func TestStationCountAndNetworks(t *testing.T) {
	tb := buildAV(t)
	if len(tb.Stations) != NumStations {
		t.Fatalf("stations = %d", len(tb.Stations))
	}
	if !tb.Stations[CCoA].CCo || !tb.Stations[CCoB].CCo {
		t.Fatal("CCo stations not pinned to 11 and 15")
	}
	// Network partition: 12*11 + 7*6 = 174 directed PLC pairs. The paper
	// reports 144 measured links on its floor; the partition structure
	// (no cross-network links) is what matters.
	if got := len(tb.SameNetworkPairs()); got != 174 {
		t.Fatalf("PLC pairs = %d, want 174", got)
	}
}

func TestCrossNetworkRefused(t *testing.T) {
	tb := buildAV(t)
	if _, err := tb.PLCLink(0, 15); err == nil {
		t.Fatal("stations 0 and 15 are on different networks")
	}
	if _, err := tb.PLCLink(0, 99); err == nil {
		t.Fatal("out-of-range station must error")
	}
}

func TestCableDistancesSpread(t *testing.T) {
	tb := buildAV(t)
	min, max := math.Inf(1), math.Inf(-1)
	for _, p := range tb.SameNetworkPairs() {
		l, err := tb.PLCLink(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		d := l.CableDistance()
		if math.IsInf(d, 1) {
			t.Fatalf("disconnected pair %v", p)
		}
		min = math.Min(min, d)
		max = math.Max(max, d)
	}
	if min > 25 {
		t.Fatalf("shortest cable run = %.0f m, want some short links", min)
	}
	if max < 60 {
		t.Fatalf("longest cable run = %.0f m, want the Fig. 7 spread", max)
	}
}

func TestLinkQualitySpread(t *testing.T) {
	// At night the floor should contain good, average and bad links —
	// the spread every experiment relies on.
	tb := buildAV(t)
	night := 23 * time.Hour
	good, bad := 0, 0
	for _, p := range tb.SameNetworkPairs() {
		if p[0] > p[1] {
			continue
		}
		l, _ := tb.PLCLink(p[0], p[1])
		l.Saturate(night, night+3*time.Second, 500*time.Millisecond)
		ble := l.AvgBLE()
		if ble > 100 {
			good++
		}
		if ble < 60 {
			bad++
		}
	}
	if good < 5 {
		t.Fatalf("good links = %d, want several", good)
	}
	if bad < 5 {
		t.Fatalf("bad links = %d, want several", bad)
	}
}

func TestWiFiSharesGeometry(t *testing.T) {
	tb := buildAV(t)
	short := tb.WiFiLink(0, 1)
	long := tb.WiFiLink(5, 17) // opposite corners of the floor
	if short.Distance() >= long.Distance() {
		t.Fatal("geometry mismatch between WiFi links")
	}
	if long.Distance() < 35 {
		t.Fatalf("far corner distance = %.0f m, want > 35 (blind spot regime)", long.Distance())
	}
	if l2 := tb.WiFiLink(0, 1); l2 != short {
		t.Fatal("WiFi links must be cached")
	}
}

func TestAV500OutpacesAV(t *testing.T) {
	night := 23 * time.Hour
	av := New(Options{Spec: phy.AV, Decimate: 8, Seed: 1})
	av5 := New(Options{Spec: phy.AV500, Decimate: 8, Seed: 1})
	lAV, _ := av.PLCLink(0, 2)
	l5, _ := av5.PLCLink(0, 2)
	lAV.Saturate(night, night+5*time.Second, 500*time.Millisecond)
	l5.Saturate(night, night+5*time.Second, 500*time.Millisecond)
	if l5.AvgBLE() <= lAV.AvgBLE() {
		t.Fatalf("AV500 (%.0f) should beat AV (%.0f) on a good link", l5.AvgBLE(), lAV.AvgBLE())
	}
}

func TestIsolatedRigBareCable(t *testing.T) {
	// §5: a bare 70 m cable costs almost nothing — the real attenuation
	// comes from the multipath created by appliances.
	night := 23 * time.Hour
	short := NewIsolatedRig(5, 1, phy.AV, nil)
	long := NewIsolatedRig(70, 1, phy.AV, nil)
	ls, _ := short.PLCLink(0, 1)
	ll, _ := long.PLCLink(0, 1)
	ls.Saturate(night, night+3*time.Second, 500*time.Millisecond)
	ll.Saturate(night, night+3*time.Second, 500*time.Millisecond)
	ts := ls.Throughput(night + 3*time.Second)
	tl := ll.Throughput(night + 3*time.Second)
	if ts-tl > 8 {
		t.Fatalf("bare 70 m cable costs %.1f Mb/s, paper reports at most ~2", ts-tl)
	}
}

func TestIsolatedRigApplianceIntroducesAsymmetry(t *testing.T) {
	// Plugging a noisy appliance near one end of the isolated cable must
	// introduce directional asymmetry (§5).
	rig := NewIsolatedRig(60, 1, phy.AV, map[float64]*grid.ApplianceClass{
		0.9: grid.ClassDimmer, // near station 1
	})
	day := 12 * time.Hour // lights schedule: dimmer on
	fwd, _ := rig.PLCLink(0, 1)
	rev, _ := rig.PLCLink(1, 0)
	fwd.Saturate(day, day+5*time.Second, 500*time.Millisecond)
	rev.Saturate(day, day+5*time.Second, 500*time.Millisecond)
	tf := fwd.Throughput(day + 5*time.Second)
	tr := rev.Throughput(day + 5*time.Second)
	if tf >= tr {
		t.Fatalf("noise near RX of 0→1 should depress it: fwd %.1f rev %.1f", tf, tr)
	}
}

func TestIsolatedRigDegenerateTaps(t *testing.T) {
	// Regression: taps at fraction 0.0 or 1.0 used to create zero-length
	// cable segments (grid.AddCable panics on those); they now merge
	// onto the end stations' outlets, and taps sharing a fraction share
	// one junction.
	rig := NewIsolatedRig(50, 1, phy.AV, map[float64]*grid.ApplianceClass{
		0.0: grid.ClassKettle,
		0.5: grid.ClassFridge,
		1.0: grid.ClassDimmer,
	})
	if got := len(rig.Grid.Appliances); got != 3 {
		t.Fatalf("appliances = %d", got)
	}
	// Station outlets are nodes 0 and 1; the clamped taps sit on them.
	if rig.Grid.Appliances[0].Node != 0 {
		t.Fatalf("frac-0 tap at node %d, want station a", rig.Grid.Appliances[0].Node)
	}
	if rig.Grid.Appliances[2].Node != 1 {
		t.Fatalf("frac-1 tap at node %d, want station b", rig.Grid.Appliances[2].Node)
	}
	l, err := rig.PLCLink(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := l.CableDistance(); d != 50 {
		t.Fatalf("cable distance = %v, want 50", d)
	}
}

func TestIsolatedRigSharedFractionDeterministic(t *testing.T) {
	// Two classes at the same fraction must land in a deterministic
	// order (by class name) regardless of map iteration order.
	build := func() []string {
		rig := NewIsolatedRig(40, 1, phy.AV, map[float64]*grid.ApplianceClass{
			0.5000001: grid.ClassKettle,
			0.5:       grid.ClassFridge,
			0.2:       grid.ClassDimmer,
		})
		var names []string
		for _, a := range rig.Grid.Appliances {
			names = append(names, a.Class.Name)
		}
		return names
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("appliance order differs across builds: %v vs %v", a, b)
		}
	}
	if a[0] != "dimmer" || a[1] != "fridge" || a[2] != "kettle" {
		t.Fatalf("appliance order = %v, want position-then-name", a)
	}
}

func TestIsolatedRigHonoursDecimation(t *testing.T) {
	// Regression: the rig used to ignore any requested decimation and
	// always build at plc.DefaultConfig's resolution.
	coarse := NewIsolatedRigOpts(30, Options{Spec: phy.AV, Seed: 1, Decimate: 16}, nil)
	fine := NewIsolatedRigOpts(30, Options{Spec: phy.AV, Seed: 1, Decimate: 2}, nil)
	lc, err := coarse.PLCLink(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := fine.PLCLink(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if nc, nf := len(lc.Ch.Carriers()), len(lf.Ch.Carriers()); nc*4 > nf {
		t.Fatalf("decimation ignored: %d carriers at 16 vs %d at 2", nc, nf)
	}
	if coarse.Opts().Decimate != 16 {
		t.Fatalf("opts decimate = %d", coarse.Opts().Decimate)
	}
}

func TestTopologyEnumeratesAllMedia(t *testing.T) {
	tb := buildAV(t)
	topo, err := tb.Topology()
	if err != nil {
		t.Fatal(err)
	}
	// 174 same-network PLC pairs + 19·18 WiFi pairs.
	wantPLC, wantWiFi := 174, NumStations*(NumStations-1)
	nPLC, nWiFi := 0, 0
	for _, l := range topo.Links() {
		switch l.Medium() {
		case core.PLC:
			nPLC++
		case core.WiFi:
			nWiFi++
		}
	}
	if nPLC != wantPLC || nWiFi != wantWiFi {
		t.Fatalf("topology has %d PLC + %d WiFi links, want %d + %d", nPLC, nWiFi, wantPLC, wantWiFi)
	}
	if got := len(topo.Stations()); got != NumStations {
		t.Fatalf("topology stations = %d", got)
	}
	// An in-network pair carries both media; a cross-network pair only
	// WiFi (Fig. 2's partition seen through the abstraction layer).
	if got := topo.Between(0, 2); len(got) != 2 {
		t.Fatalf("links 0→2 = %d, want PLC+WiFi", len(got))
	}
	if got := topo.Between(0, 15); len(got) != 1 || got[0].Medium() != core.WiFi {
		t.Fatalf("cross-network pair 0→15 must be WiFi-only: %v", got)
	}
}

func TestALLink(t *testing.T) {
	tb := buildAV(t)
	pl, err := tb.ALLink(core.PLC, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if src, dst := pl.Endpoints(); src != 0 || dst != 2 || pl.Medium() != core.PLC {
		t.Fatalf("PLC al link = %d→%d %v", src, dst, pl.Medium())
	}
	wl, err := tb.ALLink(core.WiFi, 0, 15)
	if err != nil {
		t.Fatal(err)
	}
	if wl.Medium() != core.WiFi {
		t.Fatalf("medium = %v", wl.Medium())
	}
	if _, err := tb.ALLink(core.PLC, 0, 15); err == nil {
		t.Fatal("cross-network PLC link must error")
	}
	if _, err := tb.ALLink(core.WiFi, 0, 99); err == nil {
		t.Fatal("out-of-range station must error")
	}
	if _, err := tb.ALLink(core.Medium(99), 0, 1); err == nil {
		t.Fatal("unknown medium must error")
	}
}

func TestDeterministicBuild(t *testing.T) {
	night := 23 * time.Hour
	run := func() float64 {
		tb := New(Options{Spec: phy.AV, Decimate: 8, Seed: 7})
		l, _ := tb.PLCLink(3, 8)
		l.Saturate(night, night+2*time.Second, 500*time.Millisecond)
		return l.AvgBLE()
	}
	if run() != run() {
		t.Fatal("same seed must build identical testbeds")
	}
}
