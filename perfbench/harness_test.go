package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/floor"
	"repro/internal/traffic"
)

// wireEvent renders one update as planed frames it.
func wireEvent(t *testing.T, tenant string, seq uint64, full bool, states int, tr *traffic.Summary) string {
	t.Helper()
	u := floor.WireUpdate{Floor: tenant, Seq: seq, AtSeconds: atOf(seq).Seconds(), Full: full,
		States: make([]floor.WireState, states)}
	for i := range u.States {
		u.States[i] = floor.WireState{Src: i, Dst: i + 1, Medium: "WiFi", Capacity: 1.5, Connected: true, Version: uint64(i)}
	}
	if tr != nil {
		u.Traffic = *tr
	}
	data, err := json.Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	name := "diff"
	if full {
		name = "snapshot"
	}
	return fmt.Sprintf("event: %s\nid: %d\ndata: %s\n\n", name, seq, data)
}

func TestSSEReaderFraming(t *testing.T) {
	raw := ": comment\n\nevent: diff\nid: 7\ndata: {\"a\":1}\n\n" +
		"data: line1\r\ndata: line2\r\n\r\n" +
		"event: end\ndata: \"floor: runtime closed\"\n\n"
	rd := newSSEReader(strings.NewReader(raw))
	want := []struct{ name, id, data string }{
		{"diff", "7", `{"a":1}`},
		{"message", "", "line1\nline2"},
		{"end", "", `"floor: runtime closed"`},
	}
	total := 0
	for i, w := range want {
		ev, err := rd.next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ev.Name != w.name || ev.ID != w.id || string(ev.Data) != w.data {
			t.Fatalf("event %d = %q %q %q, want %q %q %q", i, ev.Name, ev.ID, ev.Data, w.name, w.id, w.data)
		}
		total += ev.Size
	}
	if _, err := rd.next(); !errors.Is(err, io.EOF) {
		t.Fatalf("after the last event: %v, want EOF", err)
	}
	if total != len(raw)-len(": comment\n\n") {
		t.Fatalf("sizes sum to %d of %d stream bytes", total, len(raw))
	}

	// A stream cut inside an event is a broken stream, not a clean end.
	rd = newSSEReader(strings.NewReader("event: diff\ndata: {"))
	if _, err := rd.next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated event: %v, want ErrUnexpectedEOF", err)
	}

	// Lines longer than the reader's buffer are joined, not split.
	long := strings.Repeat("x", 3<<20)
	rd = newSSEReader(strings.NewReader("event: snapshot\ndata: " + long + "\n\n"))
	ev, err := rd.next()
	if err != nil || string(ev.Data) != long {
		t.Fatalf("long line: %v (got %d bytes)", err, len(ev.Data))
	}
}

func TestDecodeHead(t *testing.T) {
	tr := &traffic.Summary{ActiveFlows: 3, Arrivals: 9, Reroutes: 2}
	for _, withTraffic := range []bool{false, true} {
		var s *traffic.Summary
		if withTraffic {
			s = tr
		}
		raw := wireEvent(t, "paper", 12, false, 4, s)
		data := raw[strings.Index(raw, "data: ")+6 : len(raw)-2]
		h, got, err := decodeHead([]byte(data))
		if err != nil {
			t.Fatal(err)
		}
		if h.Floor != "paper" || h.Seq != 12 || h.Full || h.AtS != atOf(12).Seconds() {
			t.Fatalf("head = %+v", h)
		}
		if (got != nil) != withTraffic || (got != nil && *got != *tr) {
			t.Fatalf("traffic = %+v, want %+v", got, s)
		}
	}
}

// TestStreamCheckResync feeds a stream through the protocol checks:
// a bootstrap, diffs, a resync snapshot after a gap, and the end event
// pass; every broken rule is reported.
func TestStreamCheckResync(t *testing.T) {
	seed := maphash.MakeSeed()
	run := func(events ...string) error {
		c := &streamCheck{tenant: "paper", links: 4, start: virtualStart, cadence: cadence}
		rd := newSSEReader(strings.NewReader(strings.Join(events, "")))
		for i := 0; ; i++ {
			ev, err := rd.next()
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return err
			}
			if err := c.observe(ev, time.Duration(i)*time.Millisecond, seed); err != nil {
				return err
			}
		}
	}
	tr := func(arrivals uint64) *traffic.Summary { return &traffic.Summary{Arrivals: arrivals} }
	good := []string{
		wireEvent(t, "paper", 5, true, 4, tr(1)),
		wireEvent(t, "paper", 6, false, 2, tr(2)),
		wireEvent(t, "paper", 7, false, 0, tr(2)),
		wireEvent(t, "paper", 10, true, 4, tr(4)), // resync after ring drops
		wireEvent(t, "paper", 11, false, 1, tr(5)),
		"event: end\ndata: \"floor: runtime closed\"\n\n",
	}
	if err := run(good...); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	bad := map[string][]string{
		"starts with a diff": {wireEvent(t, "paper", 6, false, 1, nil)},
		"diff gap":           {good[0], good[1], wireEvent(t, "paper", 8, false, 1, nil)},
		"stale resync":       {good[0], good[1], wireEvent(t, "paper", 6, true, 4, nil)},
		"short snapshot":     {wireEvent(t, "paper", 5, true, 3, nil)},
		"other floor":        {wireEvent(t, "flat", 5, true, 4, nil)},
		"counters decrease":  {good[0], wireEvent(t, "paper", 6, false, 1, tr(0))},
		"wrong instant":      {strings.Replace(good[0], fmt.Sprintf(`"at_s":%v`, atOf(5).Seconds()), `"at_s":1`, 1)},
		"unknown event":      {"event: ping\ndata: {}\n\n"},
	}
	for name, evs := range bad {
		if err := run(evs...); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: percentile sorts
		}
		return xs
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true}, // exactly 10 samples beyond
		{99, 0.9, 90, false},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{0, 0.5, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("p%g of %d samples = %v, %v; want %v, %v", c.q*100, c.n, got, ok, c.want, c.ok)
		}
	}
	if v, q, ok := highestPercentile(seq(150), 0.9, 0.99); !ok || q != 0.9 || v != 135 {
		t.Errorf("highest percentile of 150 = %v at q=%v (%v), want 135 at 0.9", v, q, ok)
	}
}

func TestLagAnchoring(t *testing.T) {
	serving := 2 * time.Second
	tick := 10 * time.Millisecond
	cases := []struct {
		arrival time.Duration
		seq     uint64
		want    time.Duration
	}{
		{serving + 10*time.Millisecond + 700*time.Microsecond, 1, 700 * time.Microsecond},
		{serving + 3*time.Second + 2*time.Millisecond, 300, 2 * time.Millisecond},
		// A clock that fell behind: seq 50 due at +500ms arrives late.
		{serving + 900*time.Millisecond, 50, 400 * time.Millisecond},
	}
	for _, c := range cases {
		if got := lag(c.arrival, serving, c.seq, tick); got != c.want {
			t.Errorf("lag(seq %d) = %v, want %v", c.seq, got, c.want)
		}
	}
}

func TestWindowCut(t *testing.T) {
	ev := func(at float64, arrival time.Duration) streamEvent { return streamEvent{AtS: at, Arrival: arrival} }
	a := []streamEvent{ev(99, 1*time.Second), ev(100, 2*time.Second), ev(101, 3*time.Second), ev(110, 9800*time.Millisecond)}
	// The second stream lost the event at 100 to a resync: the first
	// event at or after the window start stands in for it.
	b := []streamEvent{ev(99, 1*time.Second), ev(102, 2500*time.Millisecond), ev(110, 9500*time.Millisecond)}
	got, ok := windowCut([][]streamEvent{a, b}, 100, 110)
	if !ok || got != 7300*time.Millisecond {
		t.Fatalf("windowCut = %v, %v; want 7.3s (from the later start, 2.5s, to the later end, 9.8s)", got, ok)
	}
	if _, ok := windowCut([][]streamEvent{a, b}, 100, 111); ok {
		t.Fatal("a window no stream reached was cut")
	}
}

func TestReadersSchedule(t *testing.T) {
	tenants := []string{"a", "b"}
	ops := readersSchedule(time.Second, tenants, 3)
	var reads, admits, removes int
	for i, o := range ops {
		if i > 0 && o.due < ops[i-1].due {
			t.Fatalf("schedule out of order at %d", i)
		}
		switch o.kind {
		case opSnapshot:
			reads++
		case opAdmit:
			admits++
			if !strings.Contains(o.spec, "seed=300") {
				t.Errorf("admission %s spec %q not derived from the workload seed", o.id, o.spec)
			}
		case opRemove:
			removes++
		}
	}
	if reads != 50 || admits != 2 || removes != 2 {
		t.Fatalf("schedule has %d reads, %d admissions, %d removals; want 50, 2, 2", reads, admits, removes)
	}
}
