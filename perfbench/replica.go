package main

import (
	"context"
	"fmt"
	"hash/maphash"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"repro/internal/al"
	"repro/internal/core"
	"repro/internal/floor"
	"repro/internal/floor/fanout"
	"repro/internal/plc/phy"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

// fleetSpec is one planed invocation, expressed so the harness can both
// launch the daemon and rebuild the same fleet in process.
type fleetSpec struct {
	floors   []string // tenant scenario specs, also their ids
	streamed []string // tenants with one SSE subscriber each
	wl       string   // -wl ("" = bare metric plane)
	policy   string   // -policy
	seed     int64
	tick     time.Duration // -tick: real time between ticks
}

const (
	virtualStart = 11 * time.Hour
	cadence      = time.Second
	decimate     = 16
	ringSize     = 256 // planed's default -buffer
)

func (s fleetSpec) args() []string {
	a := []string{
		"-floors", strings.Join(s.floors, ","),
		"-decimate", fmt.Sprint(decimate),
		"-cadence", cadence.String(),
		"-tick", s.tick.String(),
		"-start", virtualStart.String(),
		"-buffer", fmt.Sprint(ringSize),
		"-seed", fmt.Sprint(s.seed),
	}
	if s.wl != "" {
		a = append(a, "-wl", s.wl, "-policy", s.policy)
	}
	return a
}

// planedOptions are the testbed options planed gives every tenant.
func planedOptions(seed int64) testbed.Options {
	return testbed.Options{Spec: phy.AV, Decimate: decimate, Seed: seed}
}

// atOf is the virtual instant of a tenant's seq-th tick.
func atOf(seq uint64) time.Duration {
	return virtualStart + time.Duration(seq-1)*cadence
}

// tickMarks are one tenant tick's phase boundaries (ns on the replica's
// clock), set by the harness's hooks on the tick goroutine.
type tickMarks struct {
	start, preStart, preEnd, onStart, countEnd, onEnd int64
}

// tenant is one replica floor plus the harness's view of it.
type tenant struct {
	id     string
	rt     *floor.Runtime
	links  int
	traced bool
	clock  func() int64

	// Written by the hooks on the floor's tick goroutine and read by the
	// replica's loop after Fleet.Advance returns; the Advance barrier
	// orders the two.
	cur       tickMarks
	prevVer   []uint64
	counted   bool
	movedPLC  int64
	movedWiFi int64
}

// preTick marks the start of a tick (floor.Config.PreTick).
func (tn *tenant) preTick(time.Duration) { tn.cur = tickMarks{start: tn.clock()} }

// countMoves counts the links whose state version moved since the
// previous tick, per medium — how much of the floor re-evaluation
// actually changed.
func (tn *tenant) countMoves(snap *al.Snapshot) {
	st := snap.States()
	if len(tn.prevVer) != len(st) {
		tn.prevVer, tn.counted = make([]uint64, len(st)), false
	}
	for i := range st {
		if tn.counted && st[i].VersionOK && st[i].Version != tn.prevVer[i] {
			if st[i].Medium == core.PLC {
				tn.movedPLC++
			} else {
				tn.movedWiFi++
			}
		}
		tn.prevVer[i] = st[i].Version
	}
	tn.counted = true
}

// factory builds the floor.Config.Traffic hook factory: planed's own
// traffic wiring when the fleet carries a workload, and otherwise a
// factory whose onTick returns nil, which leaves the publication exactly
// as a bare floor's. Either way the wrappers mark the traffic phases and
// count version moves.
func (tn *tenant) factory(spec fleetSpec, scen string) (func(*al.Topology) (func(time.Duration), func(time.Duration, *al.Snapshot) any, error), error) {
	var wl traffic.Workload
	var pol traffic.Policy
	if spec.wl != "" {
		var err error
		if wl, err = traffic.ResolveFor(spec.wl, scen); err != nil {
			return nil, err
		}
		if pol, err = traffic.ParsePolicy(spec.policy); err != nil {
			return nil, err
		}
	}
	return func(topo *al.Topology) (func(time.Duration), func(time.Duration, *al.Snapshot) any, error) {
		var h *traffic.Hooks
		if spec.wl != "" {
			var err error
			if h, err = traffic.NewHooks(topo, wl, traffic.EngineConfig{Policy: pol, Seed: spec.seed}); err != nil {
				return nil, nil, err
			}
		}
		var pre func(time.Duration)
		if h != nil {
			pre = func(t time.Duration) {
				if tn.traced {
					tn.cur.preStart = tn.clock()
				}
				h.PreTick(t)
				if tn.traced {
					tn.cur.preEnd = tn.clock()
				}
			}
		}
		on := func(t time.Duration, snap *al.Snapshot) any {
			if tn.traced {
				tn.cur.onStart = tn.clock()
			}
			tn.countMoves(snap)
			if tn.traced {
				tn.cur.countEnd = tn.clock()
			}
			var s any
			if h != nil {
				s = h.OnTick(t, snap)
			}
			if tn.traced {
				tn.cur.onEnd = tn.clock()
			}
			return s
		}
		return pre, on, nil
	}, nil
}

// newTenant builds one tenant the way planed does — same options,
// start and cadence — with the harness hooks attached and the given
// ring size. It returns the floor.New time.
func newTenant(spec fleetSpec, scen string, traced bool, buffer int, clock func() int64) (*tenant, time.Duration, error) {
	tn := &tenant{id: scen, traced: traced, clock: clock}
	tf, err := tn.factory(spec, scen)
	if err != nil {
		return nil, 0, err
	}
	cfg := floor.Config{
		ID:       scen,
		Scenario: scen,
		Options:  planedOptions(spec.seed),
		Start:    virtualStart,
		Cadence:  cadence,
		Buffer:   buffer,
		Traffic:  tf,
	}
	if traced {
		cfg.PreTick = tn.preTick
	}
	t0 := time.Now()
	rt, err := floor.New(cfg)
	build := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	tn.rt, tn.links = rt, rt.Links()
	return tn, build, nil
}

// drainEvent is one publication as a harness subscriber wrote it.
type drainEvent struct {
	Seq      uint64
	Full     bool
	States   int
	Bytes    int64
	Digest   wireDigest
	EncodeNS int64 // first floor.WireBytes of the publication
	WriteNS  int64 // floor.WriteSSE
	Traffic  *traffic.Summary
}

type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// drain consumes one subscription the way planed's SSE handler does —
// resync on ring drops, stale-diff skip, floor.WriteSSE per event — into
// a byte-counting sink, hashing each event's wire JSON.
func (tn *tenant) drain(ctx context.Context, sub *fanout.Sub[floor.Update], seed maphash.Seed, out *[]drainEvent, drops *uint64) {
	var lastSeq uint64
	var w countWriter
	for {
		u, dropped, err := sub.Next(ctx)
		if err != nil {
			return
		}
		*drops += dropped
		if dropped > 0 {
			if full, ok := tn.rt.Snapshot(); ok && full.Seq >= u.Seq {
				u = full
			}
		}
		if u.Seq <= lastSeq {
			continue
		}
		var t0, t1, t2 int64
		if tn.traced {
			t0 = tn.clock()
		}
		data, err := floor.WireBytes(u)
		if tn.traced {
			t1 = tn.clock()
		}
		n0 := w.n
		werr := floor.WriteSSE(&w, u)
		if tn.traced {
			t2 = tn.clock()
		}
		if err != nil || werr != nil {
			return
		}
		lastSeq = u.Seq
		ev := drainEvent{Seq: u.Seq, Full: u.Full, States: len(u.States), Bytes: w.n - n0,
			Digest: digest(seed, data), EncodeNS: t1 - t0, WriteNS: t2 - t1}
		if s, ok := u.Traffic.(traffic.Summary); ok {
			ev.Traffic = &s
		}
		*out = append(*out, ev)
	}
}

// stamp is when a harness-held subscription observed a publication.
type stamp struct {
	seq uint64
	at  int64
}

// replica is an in-process fleet reproducing one planed invocation.
type replica struct {
	spec    fleetSpec
	traced  bool
	fleet   *floor.Fleet
	tenants []*tenant
	base    time.Time
	builds  []time.Duration

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	events map[string]*[]drainEvent // per streamed tenant, written by its drain goroutine
	drops  map[string]*uint64
	stamps map[string]chan stamp // traced: publish observations
	held   map[string]*stamp     // a stamp read ahead of its tick
}

func (rp *replica) clock() int64 { return int64(time.Since(rp.base)) }

// newReplica builds the fleet and attaches the streamed subscribers.
func newReplica(spec fleetSpec, traced bool, seed maphash.Seed) (*replica, error) {
	rp := &replica{spec: spec, traced: traced, fleet: floor.NewFleet(virtualStart), base: time.Now(),
		events: map[string]*[]drainEvent{}, drops: map[string]*uint64{},
		stamps: map[string]chan stamp{}, held: map[string]*stamp{}}
	rp.ctx, rp.cancel = context.WithCancel(context.Background())
	for _, scen := range spec.floors {
		tn, build, err := newTenant(spec, scen, traced, ringSize, rp.clock)
		if err == nil {
			err = rp.fleet.Add(tn.rt)
		}
		if err != nil {
			rp.close()
			return nil, err
		}
		rp.tenants = append(rp.tenants, tn)
		rp.builds = append(rp.builds, build)
	}
	for _, id := range spec.streamed {
		tn := rp.tenant(id)
		if tn == nil {
			rp.close()
			return nil, fmt.Errorf("replica has no tenant %q", id)
		}
		sub, _, _ := tn.rt.Subscribe()
		evs, drops := new([]drainEvent), new(uint64)
		rp.events[id], rp.drops[id] = evs, drops
		rp.wg.Add(1)
		go func() {
			defer rp.wg.Done()
			defer sub.Close()
			tn.drain(rp.ctx, sub, seed, evs, drops)
		}()
	}
	if traced {
		// A harness-held subscription per tenant observes each
		// publication reaching the fanout, closing the publish span.
		for _, tn := range rp.tenants {
			ssub, _, _ := tn.rt.Subscribe()
			// One stamp per tick is consumed right after each Advance;
			// the slack only absorbs a stamp goroutine running ahead.
			ch := make(chan stamp, 64)
			rp.stamps[tn.id] = ch
			rp.wg.Add(1)
			go func() {
				defer rp.wg.Done()
				defer ssub.Close()
				for {
					u, _, err := ssub.Next(rp.ctx)
					if err != nil {
						return
					}
					select {
					case ch <- stamp{seq: u.Seq, at: rp.clock()}:
					case <-rp.ctx.Done():
						return
					}
				}
			}()
		}
	}
	return rp, nil
}

func (rp *replica) tenant(id string) *tenant {
	for _, tn := range rp.tenants {
		if tn.id == id {
			return tn
		}
	}
	return nil
}

// close ends the fleet (drain goroutines finish their buffered events
// and exit) and waits for every harness goroutine.
func (rp *replica) close() {
	rp.fleet.Close()
	rp.wg.Wait()
	rp.cancel()
}

// seq is the lowest published seq across tenants.
func (rp *replica) seq() uint64 {
	lo := ^uint64(0)
	for _, tn := range rp.tenants {
		s, _ := tn.rt.Seq()
		lo = min(lo, s)
	}
	return lo
}

// publishStamp returns when tenant id's subscriber observed seq, or
// ok=false when the stamp subscription dropped it.
func (rp *replica) publishStamp(id string, seq uint64) (int64, bool) {
	if h := rp.held[id]; h != nil {
		if h.seq > seq {
			return 0, false
		}
		delete(rp.held, id)
		if h.seq == seq {
			return h.at, true
		}
	}
	for {
		select {
		case s := <-rp.stamps[id]:
			switch {
			case s.seq == seq:
				return s.at, true
			case s.seq > seq:
				rp.held[id] = &s
				return 0, false
			}
		case <-time.After(time.Second):
			return 0, false
		}
	}
}

// tickRecord is one Fleet.Advance of the replica.
type tickRecord struct {
	start, end int64
	marks      []tickMarks // per tenant, traced only
	pub        []int64     // per tenant publish observation (clamped), traced only
}

// sample brackets the measured window: the Go runtime's allocation
// and GC counters, and the tenants' cumulative version-move counts.
// Taken between Advances, so the tick goroutines are quiescent.
type sample struct {
	mallocs, totalAlloc uint64
	gcCPU, totalCPU     float64
	movedPLC, movedWiFi int64
}

func (rp *replica) sample() sample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	out := sample{mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64()}
	for _, tn := range rp.tenants {
		out.movedPLC += tn.movedPLC
		out.movedWiFi += tn.movedWiFi
	}
	return out
}

// advanceLoop ticks the fleet until every tenant has published seq
// last, paced at spec.tick when pace is set (planed's ticker) and back
// to back otherwise. It records every tick whose seq lies in
// [from, last], plus the Go runtime counters across that window.
func (rp *replica) advanceLoop(from, last uint64, pace bool) ([]tickRecord, sample, sample) {
	var recs []tickRecord
	var m0, m1 sample
	started := time.Now()
	for k := 1; rp.seq() < last; k++ {
		if pace {
			if d := time.Until(started.Add(time.Duration(k) * rp.spec.tick)); d > 0 {
				time.Sleep(d)
			}
		}
		seq := rp.seq() + 1
		if seq == from {
			m0 = rp.sample()
		}
		a0 := rp.clock()
		rp.fleet.Advance(cadence)
		a1 := rp.clock()
		if seq < from {
			continue
		}
		rec := tickRecord{start: a0, end: a1}
		if rp.traced {
			for _, tn := range rp.tenants {
				rec.marks = append(rec.marks, tn.cur)
				pub := a1
				if ch := rp.stamps[tn.id]; ch != nil {
					if at, ok := rp.publishStamp(tn.id, seq); ok && at < a1 {
						pub = at
					}
				}
				rec.pub = append(rec.pub, pub)
			}
		}
		recs = append(recs, rec)
	}
	m1 = rp.sample()
	return recs, m0, m1
}
