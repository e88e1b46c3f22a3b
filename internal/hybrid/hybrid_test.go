package hybrid

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/al"
	"repro/internal/core"
)

// fake is a scripted al.Link for scheduler tests.
type fake struct {
	med  core.Medium
	cap  func(time.Duration) float64
	tput func(time.Duration) float64
	conn func(time.Duration) bool
}

func (f *fake) Endpoints() (int, int)            { return 0, 1 }
func (f *fake) Medium() core.Medium              { return f.med }
func (f *fake) Capacity(t time.Duration) float64 { return f.cap(t) }
func (f *fake) Goodput(t time.Duration) float64  { return f.tput(t) }
func (f *fake) Connected(t time.Duration) bool   { return f.conn(t) }
func (f *fake) Metrics(t time.Duration) core.LinkMetrics {
	return core.LinkMetrics{Medium: f.med, CapacityMbps: f.cap(t), UpdatedAt: t}
}

// constLink is a connected link with fixed capacity estimate and goodput.
func constLink(med core.Medium, cap, tput float64) *fake {
	return &fake{
		med:  med,
		cap:  func(time.Duration) float64 { return cap },
		tput: func(time.Duration) float64 { return tput },
		conn: func(time.Duration) bool { return true },
	}
}

// darkLink is a disconnected link (a WiFi blind spot).
func darkLink(cap, tput float64) *fake {
	l := constLink(core.WiFi, cap, tput)
	l.conn = func(time.Duration) bool { return false }
	return l
}

func TestProportionalApproachesSum(t *testing.T) {
	// Accurate estimates: hybrid ≈ sum of the two media (Fig. 20).
	wifi := constLink(core.WiFi, 30, 30)
	plc := constLink(core.PLC, 45, 45)
	got := AggregateThroughput(0, Proportional{}, []al.Link{wifi, plc})
	if got < 74 || got > 76 {
		t.Fatalf("hybrid aggregate = %.1f, want ≈75", got)
	}
}

func TestRoundRobinPinnedAtTwiceMin(t *testing.T) {
	wifi := constLink(core.WiFi, 30, 30)
	plc := constLink(core.PLC, 45, 45)
	got := AggregateThroughput(0, RoundRobin{}, []al.Link{wifi, plc})
	if got < 59 || got > 61 {
		t.Fatalf("round-robin aggregate = %.1f, want 2*min = 60", got)
	}
}

func TestHybridBeatsRoundRobinWhenUnbalanced(t *testing.T) {
	wifi := constLink(core.WiFi, 10, 10)
	plc := constLink(core.PLC, 90, 90)
	h := AggregateThroughput(0, Proportional{}, []al.Link{wifi, plc})
	rr := AggregateThroughput(0, RoundRobin{}, []al.Link{wifi, plc})
	if h <= rr*2 {
		t.Fatalf("proportional %.1f should dominate round-robin %.1f on skewed links", h, rr)
	}
}

func TestStaleEstimateHurts(t *testing.T) {
	// The balancer believes the media are equal but PLC actually
	// delivers 3x — the motivation for accurate capacity estimation.
	wifi := constLink(core.WiFi, 50, 30)
	plc := constLink(core.PLC, 50, 90)
	got := AggregateThroughput(0, Proportional{}, []al.Link{wifi, plc})
	if got >= 90 {
		t.Fatalf("stale estimates should cost throughput: %.1f", got)
	}
}

func TestZeroCapacityFallbackSplitsEqually(t *testing.T) {
	a := constLink(core.WiFi, 0, 20)
	b := constLink(core.PLC, 0, 20)
	if got := AggregateThroughput(0, Proportional{}, []al.Link{a, b}); got < 39 || got > 41 {
		t.Fatalf("equal fallback aggregate = %.1f, want 40", got)
	}
	if got := AggregateThroughput(0, Proportional{}, nil); got != 0 {
		t.Fatalf("no links = %.1f", got)
	}
}

func TestZeroCapacityFallbackSkipsDisconnected(t *testing.T) {
	// No estimates anywhere, one link dark: the equal split must cover
	// the usable links only — weight on the blind spot would sink that
	// share of the traffic and pin the aggregate at zero.
	a := constLink(core.WiFi, 0, 20)
	b := constLink(core.PLC, 0, 20)
	dark := darkLink(0, 0)
	w := Proportional{}.Weights(0, []al.Link{a, dark, b})
	if w[1] != 0 {
		t.Fatalf("dark link got weight %v", w[1])
	}
	if w[0] != 0.5 || w[2] != 0.5 {
		t.Fatalf("usable links must split equally: %v", w)
	}
	got := AggregateThroughput(0, Proportional{}, []al.Link{a, dark, b})
	if got < 39 || got > 41 {
		t.Fatalf("aggregate with dark link = %.1f, want 40", got)
	}
	// All links dark: no valid split exists.
	w = Proportional{}.Weights(0, []al.Link{darkLink(0, 0), darkLink(0, 0)})
	for i, v := range w {
		if v != 0 {
			t.Fatalf("all-dark weight[%d] = %v", i, v)
		}
	}
}

func TestStaleEstimateOnDarkLinkGetsNoWeight(t *testing.T) {
	// A blind-spot link whose capacity EWMA has not caught up with the
	// outage still advertises capacity; the scheduler must not split
	// onto it (and Transfer must therefore route around it, not abort).
	live := constLink(core.PLC, 50, 50)
	stale := darkLink(40, 0)
	w := Proportional{}.Weights(0, []al.Link{live, stale})
	if w[0] != 1 || w[1] != 0 {
		t.Fatalf("weights = %v, want all traffic on the live link", w)
	}
	if _, err := Transfer(0, 1<<20, time.Second, Proportional{}, []al.Link{live, stale}); err != nil {
		t.Fatalf("transfer must route around the dark link: %v", err)
	}
}

func TestUnusedLinkDoesNotBound(t *testing.T) {
	dead := constLink(core.WiFi, 0, 0)
	live := constLink(core.PLC, 50, 50)
	got := AggregateThroughput(0, Proportional{}, []al.Link{dead, live})
	if got < 49 || got > 51 {
		t.Fatalf("dead link should not drag the aggregate: %.1f", got)
	}
}

func TestTransferCompletionTimes(t *testing.T) {
	wifi := constLink(core.WiFi, 30, 30)
	plc := constLink(core.PLC, 45, 45)
	const size = 600 << 20 // the paper's 600 MB download
	hyb, err := Transfer(0, size, time.Second, Proportional{}, []al.Link{wifi, plc})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := Transfer(0, size, time.Second, Proportional{}, []al.Link{wifi})
	if err != nil {
		t.Fatal(err)
	}
	if hyb >= solo {
		t.Fatalf("hybrid %.0fs should beat WiFi-only %.0fs", hyb.Seconds(), solo.Seconds())
	}
	// Sanity: 600 MB at 75 Mb/s ≈ 67 s.
	want := float64(size*8) / (75e6)
	if hyb.Seconds() < want*0.95 || hyb.Seconds() > want*1.1 {
		t.Fatalf("hybrid completion %.1fs, want ≈%.1fs", hyb.Seconds(), want)
	}
}

func TestTransferStalls(t *testing.T) {
	dead := constLink(core.PLC, 0, 0)
	if _, err := Transfer(0, 1<<20, time.Second, Proportional{}, []al.Link{dead}); err == nil {
		t.Fatal("transfer over a dead medium must error")
	}
}

func TestTransferRejectsMisSplit(t *testing.T) {
	// Round-robin blindly gives the blind-spot link half the packets:
	// the transfer must fail loudly instead of silently running at half
	// rate with half the traffic black-holed.
	live := constLink(core.WiFi, 50, 50)
	dark := darkLink(0, 0)
	_, err := Transfer(0, 1<<20, time.Second, RoundRobin{}, []al.Link{live, dark})
	if err == nil {
		t.Fatal("mis-splitting scheduler must be rejected")
	}
	if !strings.Contains(err.Error(), "mis-splits") {
		t.Fatalf("err = %q, want a mis-split complaint", err)
	}
	// The proportional scheduler concentrates on the usable link and
	// completes.
	if _, err := Transfer(0, 1<<20, time.Second, Proportional{}, []al.Link{live, dark}); err != nil {
		t.Fatalf("proportional over the same links must work: %v", err)
	}
}

// nanScheduler is a broken scheduler that normalised by a zero total.
type nanScheduler struct{}

func (nanScheduler) Name() string { return "nan" }
func (nanScheduler) Weights(t time.Duration, links []al.Link) []float64 {
	w := make([]float64, len(links))
	for i := range w {
		w[i] = math.NaN()
	}
	return w
}

func TestTransferRejectsNaNWeights(t *testing.T) {
	live := constLink(core.WiFi, 50, 50)
	_, err := Transfer(0, 1<<20, time.Second, nanScheduler{}, []al.Link{live})
	if err == nil {
		t.Fatal("NaN weights must be rejected, not reported as instant completion")
	}
	if !strings.Contains(err.Error(), "mis-splits") {
		t.Fatalf("err = %q", err)
	}
}

// outage delivers rate Mb/s except inside [from, to), where it is dark.
func outage(rate float64, from, to time.Duration) *fake {
	f := func(t time.Duration) float64 {
		if t >= from && t < to {
			return 0
		}
		return rate
	}
	return &fake{
		med: core.PLC, cap: f, tput: f,
		conn: func(t time.Duration) bool { return f(t) > 0 },
	}
}

func TestTransferStallAbortsAtLimit(t *testing.T) {
	// The medium dies 1 s in and never recovers: the transfer must abort
	// once the 10-minute stall budget is exhausted, not spin forever.
	link := outage(10, time.Second, time.Hour)
	_, err := Transfer(0, 1<<30, time.Second, Proportional{}, []al.Link{link})
	if err == nil {
		t.Fatal("permanently stalled transfer must abort")
	}
	if want := "stalled"; !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %q, want mention of %q", err, want)
	}
}

func TestTransferSurvivesOutageShorterThanLimit(t *testing.T) {
	// A 9-minute outage sits under the 10-minute stall budget: the
	// transfer must resume and complete, and the completion time must
	// include the dark window.
	const rate = 80.0 // Mb/s
	link := outage(rate, time.Second, time.Second+9*time.Minute)
	size := int64(10 << 20)
	done, err := Transfer(0, size, time.Second, Proportional{}, []al.Link{link})
	if err != nil {
		t.Fatal(err)
	}
	active := float64(size*8) / (rate * 1e6)
	min := 9*time.Minute + time.Duration(active*float64(time.Second))
	if done < min || done > min+3*time.Second {
		t.Fatalf("completion %v, want just over the %v outage", done, min)
	}
}

func TestTransferIntermittentStallsDoNotAccumulate(t *testing.T) {
	// The stall counter must reset whenever traffic flows: alternating
	// 8-minute outages with working seconds never trips the 10-minute
	// limit even though total dark time far exceeds it.
	period := 8*time.Minute + time.Second
	f := func(t time.Duration) float64 {
		if t%period < 8*time.Minute {
			return 0
		}
		return 100
	}
	link := &fake{
		med: core.PLC, cap: f, tput: f,
		conn: func(t time.Duration) bool { return f(t) > 0 },
	}
	size := int64(30 << 20) // ≈252 Mb ≈ 2.5 working seconds → 3 outage cycles
	done, err := Transfer(0, size, time.Second, Proportional{}, []al.Link{link})
	if err != nil {
		t.Fatalf("intermittent stalls must not abort: %v", err)
	}
	if done < 3*8*time.Minute {
		t.Fatalf("completion %v too fast to have crossed the outages", done)
	}
}

func TestMetricTableBackedScheduling(t *testing.T) {
	// A service that only sees the 1905 metric table balances through the
	// same interface (al.TableLink) — the abstraction-layer promise.
	mt := core.NewMetricTable()
	mt.Update(0, 1, core.LinkMetrics{Medium: core.WiFi, CapacityMbps: 30})
	mt.Update(0, 2, core.LinkMetrics{Medium: core.PLC, CapacityMbps: 90})
	links := []al.Link{
		al.TableLink{Table: mt, Src: 0, Dst: 1},
		al.TableLink{Table: mt, Src: 0, Dst: 2},
	}
	w := Proportional{}.Weights(0, links)
	if w[0] != 0.25 || w[1] != 0.75 {
		t.Fatalf("table-driven weights = %v", w)
	}
}

// Property: scheduler weights are a probability distribution over the
// connected links whenever any link has capacity or is connected.
func TestWeightsDistributionProperty(t *testing.T) {
	f := func(caps []uint8) bool {
		if len(caps) == 0 {
			return true
		}
		var links []al.Link
		for _, c := range caps {
			c := float64(c)
			links = append(links, constLink(core.PLC, c, c))
		}
		for _, s := range []Scheduler{Proportional{}, RoundRobin{}} {
			w := s.Weights(0, links)
			if len(w) != len(links) {
				return false
			}
			var sum float64
			for _, v := range w {
				if v < 0 {
					return false
				}
				sum += v
			}
			if sum < 0.999 || sum > 1.001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
