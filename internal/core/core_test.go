package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/stats"
)

func TestMetricTable(t *testing.T) {
	mt := NewMetricTable()
	mt.Update(0, 1, LinkMetrics{Medium: PLC, CapacityMbps: 100, Loss: 0.02, UpdatedAt: time.Second})
	mt.Update(1, 0, LinkMetrics{Medium: PLC, CapacityMbps: 40, Loss: 0.05, UpdatedAt: time.Second})
	if m, ok := mt.Lookup(0, 1); !ok || m.CapacityMbps != 100 {
		t.Fatalf("lookup = %+v %v", m, ok)
	}
	if _, ok := mt.Lookup(5, 6); ok {
		t.Fatal("missing entry must report !ok")
	}
	ratio, ok := mt.Asymmetry(0, 1)
	if !ok || math.Abs(ratio-2.5) > 1e-9 {
		t.Fatalf("asymmetry = %v %v", ratio, ok)
	}
	// Asymmetry is direction-independent.
	r2, _ := mt.Asymmetry(1, 0)
	if r2 != ratio {
		t.Fatal("asymmetry must be symmetric in its arguments")
	}
}

func TestUETX(t *testing.T) {
	mean, std := UETX([]int{1, 1, 1, 3})
	if mean != 1.5 {
		t.Fatalf("U-ETX mean = %v", mean)
	}
	if std <= 0 {
		t.Fatalf("U-ETX std = %v", std)
	}
	if m, s := UETX(nil); m != 0 || s != 0 {
		t.Fatal("empty U-ETX must be zero")
	}
}

func TestTransmissionsFromSoFTimestamps(t *testing.T) {
	ms := time.Millisecond
	// Three packets: 1 tx, 3 tx (retries 3 ms apart), 2 tx.
	stamps := []time.Duration{
		0,
		75 * ms, 78 * ms, 81 * ms,
		150 * ms, 153 * ms,
	}
	counts := TransmissionsFromSoFTimestamps(stamps)
	want := []int{1, 3, 2}
	if len(counts) != len(want) {
		t.Fatalf("counts = %v", counts)
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
	if TransmissionsFromSoFTimestamps(nil) != nil {
		t.Fatal("empty trace must return nil")
	}
}

// Property: the total frame count is preserved by the 10 ms grouping.
func TestSoFGroupingPreservesFrames(t *testing.T) {
	f := func(gaps []uint16) bool {
		var stamps []time.Duration
		cur := time.Duration(0)
		for _, g := range gaps {
			cur += time.Duration(g) * time.Millisecond
			stamps = append(stamps, cur)
		}
		counts := TransmissionsFromSoFTimestamps(stamps)
		total := 0
		for _, c := range counts {
			total += c
		}
		return total == len(stamps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptivePolicyIntervals(t *testing.T) {
	p := PaperAdaptivePolicy()
	if p.Interval(30) != 5*time.Second {
		t.Fatal("bad link must probe every 5 s")
	}
	if p.Interval(80) != 40*time.Second {
		t.Fatal("average link must probe 8x slower")
	}
	if p.Interval(120) != 80*time.Second {
		t.Fatal("good link must probe 16x slower")
	}
}

// syntheticTrace builds a BLE series: stable at level with occasional
// steps, sampled every 50 ms.
func syntheticTrace(level float64, wobble float64, dur time.Duration) *stats.Series {
	s := &stats.Series{}
	for tm := time.Duration(0); tm < dur; tm += 50 * time.Millisecond {
		v := level
		if wobble > 0 {
			// Deterministic sawtooth wobble.
			phase := float64(tm%(10*time.Second)) / float64(10*time.Second)
			v += wobble * (2*phase - 1)
		}
		s.Add(tm, v)
	}
	return s
}

func TestEvaluateProbingStableLink(t *testing.T) {
	s := syntheticTrace(120, 0, 5*time.Minute)
	ev := EvaluateProbing(s, FixedPolicy{Every: 5 * time.Second})
	if ev.MeanError() > 1e-9 {
		t.Fatalf("stable link error = %v, want 0", ev.MeanError())
	}
	if ev.Probes < 55 || ev.Probes > 62 {
		t.Fatalf("probes over 5 min at 5 s = %d", ev.Probes)
	}
}

func TestEvaluateProbingTradeoffs(t *testing.T) {
	s := syntheticTrace(80, 15, 10*time.Minute)
	fast := EvaluateProbing(s, FixedPolicy{Every: 5 * time.Second})
	slow := EvaluateProbing(s, FixedPolicy{Every: 80 * time.Second})
	if fast.Probes <= slow.Probes {
		t.Fatal("faster probing must cost more probes")
	}
	if fast.MeanError() >= slow.MeanError() {
		t.Fatal("faster probing must estimate better on a wobbling link")
	}
}

func TestAdaptiveSavesOverheadKeepsAccuracy(t *testing.T) {
	// A mixed population: bad links wobble, good links are stable —
	// exactly the §6 correlation the adaptive policy exploits.
	bad := syntheticTrace(40, 12, 10*time.Minute)
	good := syntheticTrace(120, 1, 10*time.Minute)

	var adProbes, fixProbes int
	var adErr, fixErr []float64
	for _, s := range []*stats.Series{bad, good} {
		ad := EvaluateProbing(s, PaperAdaptivePolicy())
		fx := EvaluateProbing(s, FixedPolicy{Every: 5 * time.Second})
		adProbes += ad.Probes
		fixProbes += fx.Probes
		adErr = append(adErr, ad.Errors...)
		fixErr = append(fixErr, fx.Errors...)
	}
	saving := 1 - float64(adProbes)/float64(fixProbes)
	if saving < 0.2 {
		t.Fatalf("adaptive overhead saving = %.0f%%, want substantial (paper: 32%%)", saving*100)
	}
	if stats.Mean(adErr) > stats.Mean(fixErr)*2.5 {
		t.Fatalf("adaptive error %.2f too much worse than fixed %.2f", stats.Mean(adErr), stats.Mean(fixErr))
	}
}

func TestOverheadKbps(t *testing.T) {
	ev := ProbingEval{Probes: 60, Duration: 5 * time.Minute}
	// 60 probes of 1500 B over 300 s = 2.4 kb/s.
	if k := ev.OverheadKbps(1500); math.Abs(k-2.4) > 1e-9 {
		t.Fatalf("overhead = %v kb/s", k)
	}
}

func TestGuidelinesCoverTable3(t *testing.T) {
	gs := Guidelines()
	if len(gs) != 7 {
		t.Fatalf("guidelines = %d rows, Table 3 has 7", len(gs))
	}
	seen := map[string]bool{}
	for _, g := range gs {
		if g.Policy == "" || g.Explanation == "" || g.Section == "" {
			t.Fatalf("incomplete guideline: %+v", g)
		}
		if seen[g.Policy] {
			t.Fatalf("duplicate guideline %q", g.Policy)
		}
		seen[g.Policy] = true
		if g.String() == "" {
			t.Fatal("empty rendering")
		}
	}
}

func TestMediumString(t *testing.T) {
	if PLC.String() != "PLC" || WiFi.String() != "WiFi" {
		t.Fatal("medium names")
	}
	if Medium(9).String() == "" {
		t.Fatal("unknown medium must still render")
	}
}
