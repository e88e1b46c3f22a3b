package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"time"

	"repro/internal/floor"
	"repro/internal/traffic"
)

// sseEvent is one server-sent event as framed on the wire.
type sseEvent struct {
	Name string // event field ("message" when absent)
	ID   string
	// Data is the joined data lines. It aliases the reader's scratch and
	// is valid only until the next call to next.
	Data []byte
	// Size is the number of bytes the event occupied on the wire,
	// terminating blank line included.
	Size int
}

// sseReader frames a text/event-stream. It keeps one scratch buffer, so
// framing a 300 KB snapshot event costs a copy, not an allocation.
type sseReader struct {
	br   *bufio.Reader
	data []byte
}

func newSSEReader(r io.Reader) *sseReader {
	return &sseReader{br: bufio.NewReaderSize(r, 1<<20)}
}

// next returns the next complete event; io.EOF at a clean end of stream
// and io.ErrUnexpectedEOF when the stream stops inside an event.
func (s *sseReader) next() (sseEvent, error) {
	var ev sseEvent
	s.data = s.data[:0]
	started, sawData := false, false
	for {
		line, err := s.br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			long := append([]byte(nil), line...)
			for errors.Is(err, bufio.ErrBufferFull) {
				line, err = s.br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if err != nil {
			if errors.Is(err, io.EOF) && !started && len(line) == 0 {
				return ev, io.EOF
			}
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return ev, err
		}
		ev.Size += len(line)
		line = bytes.TrimSuffix(line[:len(line)-1], []byte{'\r'})
		if len(line) == 0 {
			if !sawData {
				// Blank lines between events, or a block of comments
				// and fields without data, which dispatches nothing.
				ev, started = sseEvent{}, false
				continue
			}
			if ev.Name == "" {
				ev.Name = "message"
			}
			ev.Data = s.data
			return ev, nil
		}
		started = true
		field, value := line, []byte(nil)
		if i := bytes.IndexByte(line, ':'); i >= 0 {
			field, value = line[:i], bytes.TrimPrefix(line[i+1:], []byte{' '})
		}
		switch string(field) {
		case "event":
			ev.Name = string(value)
		case "id":
			ev.ID = string(value)
		case "data":
			if sawData {
				s.data = append(s.data, '\n')
			}
			s.data = append(s.data, value...)
			sawData = true
		}
		// Comments (empty field) and unknown fields are ignored, as the
		// SSE framing rules require.
	}
}

// wireHead is the prefix of a floor.WireUpdate that the per-event
// checks need. It is decoded without walking the states array, which
// keeps a subscriber reading ~70 KB diffs at full speed from stealing
// the daemon's cores.
type wireHead struct {
	Floor string  `json:"floor"`
	Seq   uint64  `json:"seq"`
	AtS   float64 `json:"at_s"`
	Full  bool    `json:"full"`
}

var (
	statesKey  = []byte(`,"states":`)
	trafficKey = []byte(`,"traffic":`)
)

// decodeHead decodes an update's head and, when present, its traffic
// summary (the last field of the wire object).
func decodeHead(data []byte) (wireHead, *traffic.Summary, error) {
	var h wireHead
	i := bytes.Index(data, statesKey)
	if i < 0 {
		return h, nil, errors.New("update has no states field")
	}
	if err := json.Unmarshal(append(data[:i:i], '}'), &h); err != nil {
		return h, nil, fmt.Errorf("update head: %w", err)
	}
	j := bytes.LastIndex(data, trafficKey)
	if j < i || data[len(data)-1] != '}' {
		return h, nil, nil
	}
	var s traffic.Summary
	if err := json.Unmarshal(data[j+len(trafficKey):len(data)-1], &s); err != nil {
		return h, nil, fmt.Errorf("update traffic: %w", err)
	}
	return h, &s, nil
}

// wireDigest fingerprints an update's wire JSON per top-level part, so
// a parity mismatch can name the first differing field without keeping
// every event's bytes.
type wireDigest struct {
	Head, States, Traffic uint64
}

func digest(seed maphash.Seed, data []byte) wireDigest {
	i := bytes.Index(data, statesKey)
	if i < 0 {
		i = len(data)
	}
	j := bytes.LastIndex(data, trafficKey)
	if j < i {
		j = len(data)
	}
	return wireDigest{maphash.Bytes(seed, data[:i]), maphash.Bytes(seed, data[i:j]), maphash.Bytes(seed, data[j:])}
}

// firstDiff names the first top-level part where two digests differ
// ("" when equal).
func (d wireDigest) firstDiff(o wireDigest) string {
	switch {
	case d.Head != o.Head:
		return "head (floor, seq, at_s, full)"
	case d.States != o.States:
		return "states"
	case d.Traffic != o.Traffic:
		return "traffic"
	}
	return ""
}

// streamEvent is what a subscriber keeps of one received update.
type streamEvent struct {
	Seq     uint64
	AtS     float64
	Full    bool
	Bytes   int
	Digest  wireDigest
	Arrival time.Duration // since the run's clock base
}

// streamCheck validates one tenant's SSE stream event by event against
// the protocol contract: the first event is the bootstrap snapshot, seq
// rises by exactly one except at a resync snapshot, at_s is the
// tenant's start plus (seq-1) cadences, and the cumulative traffic
// counters never decrease.
type streamCheck struct {
	tenant         string
	links          int
	start, cadence time.Duration

	events  []streamEvent
	traffic *traffic.Summary
	diffs   int
	ended   bool // received the daemon's closing `end` event
}

// observe checks one event and records it. It returns an error naming
// the first violated rule; the event is recorded either way, so the
// stream stays aligned for the parity replay.
func (c *streamCheck) observe(ev sseEvent, arrival time.Duration, seed maphash.Seed) error {
	if ev.Name == "end" {
		c.ended = true
		return nil
	}
	if ev.Name != "snapshot" && ev.Name != "diff" {
		return fmt.Errorf("%s: unexpected event %q", c.tenant, ev.Name)
	}
	h, tr, err := decodeHead(ev.Data)
	if err != nil {
		return fmt.Errorf("%s: %w", c.tenant, err)
	}
	se := streamEvent{Seq: h.Seq, AtS: h.AtS, Full: h.Full, Bytes: ev.Size,
		Digest: digest(seed, ev.Data), Arrival: arrival}
	var prev *streamEvent
	if n := len(c.events); n > 0 {
		prev = &c.events[n-1]
	}
	c.events = append(c.events, se)

	switch {
	case h.Floor != c.tenant:
		return fmt.Errorf("%s: event names floor %q", c.tenant, h.Floor)
	case ev.ID != fmt.Sprint(h.Seq):
		return fmt.Errorf("%s: event id %q carries seq %d", c.tenant, ev.ID, h.Seq)
	case h.Full != (ev.Name == "snapshot"):
		return fmt.Errorf("%s seq %d: event %q with full=%v", c.tenant, h.Seq, ev.Name, h.Full)
	case prev == nil && !h.Full:
		return fmt.Errorf("%s: stream starts with a diff (seq %d)", c.tenant, h.Seq)
	case prev != nil && !h.Full && h.Seq != prev.Seq+1:
		return fmt.Errorf("%s: diff seq %d after %d", c.tenant, h.Seq, prev.Seq)
	case prev != nil && h.Full && h.Seq <= prev.Seq:
		return fmt.Errorf("%s: resync snapshot seq %d after %d", c.tenant, h.Seq, prev.Seq)
	}
	if want := (c.start + time.Duration(h.Seq-1)*c.cadence).Seconds(); h.AtS != want {
		return fmt.Errorf("%s seq %d: at_s %v, want %v", c.tenant, h.Seq, h.AtS, want)
	}
	if tr != nil {
		if p := c.traffic; p != nil && (tr.Arrivals < p.Arrivals || tr.CompletedFlows < p.CompletedFlows ||
			tr.DroppedFlows < p.DroppedFlows || tr.Reroutes < p.Reroutes) {
			return fmt.Errorf("%s seq %d: cumulative traffic counters decreased", c.tenant, h.Seq)
		}
		c.traffic = tr
	}
	if !h.Full {
		c.diffs++
	}
	if h.Full || c.diffs%parseEvery == 0 {
		var u floor.WireUpdate
		if err := json.Unmarshal(ev.Data, &u); err != nil {
			return fmt.Errorf("%s seq %d: %w", c.tenant, h.Seq, err)
		}
		if h.Full && len(u.States) != c.links {
			return fmt.Errorf("%s seq %d: snapshot carries %d states, floor has %d links", c.tenant, h.Seq, len(u.States), c.links)
		}
	}
	return nil
}

// firstAtOrAfter returns the arrival of the first event whose virtual
// instant is at or after at — one end of the fixed virtual window.
func firstAtOrAfter(evs []streamEvent, at float64) (time.Duration, bool) {
	for _, e := range evs {
		if e.AtS >= at {
			return e.Arrival, true
		}
	}
	return 0, false
}

// windowCut returns the wall time the streams took to cover the virtual
// window [a, b]: from the instant every stream had an event at or after
// a, to the instant every stream had one at or after b.
func windowCut(streams [][]streamEvent, a, b float64) (time.Duration, bool) {
	var ta, tb time.Duration
	for _, evs := range streams {
		sa, okA := firstAtOrAfter(evs, a)
		sb, okB := firstAtOrAfter(evs, b)
		if !okA || !okB {
			return 0, false
		}
		ta, tb = max(ta, sa), max(tb, sb)
	}
	return tb - ta, tb > ta
}

// lag is an event's freshness in an open loop paced at tick: how long
// after its due instant — seq ticks after the daemon announced it was
// serving — the event reached the subscriber.
func lag(arrival, serving time.Duration, seq uint64, tick time.Duration) time.Duration {
	return arrival - (serving + time.Duration(seq)*tick)
}
