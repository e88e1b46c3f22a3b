package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"time"

	"repro/internal/floor"
	"repro/internal/scenario"
)

const (
	// readersTick paces planed's clock well under capacity: an open
	// loop, so lag shows whether the daemon keeps up.
	readersTick = 10 * time.Millisecond
	// The request schedule on the second connection.
	snapshotEvery = 20 * time.Millisecond
	admitEvery    = 500 * time.Millisecond
	admitOffset   = 110 * time.Millisecond
	admitLife     = 250 * time.Millisecond
	// readersWarm ticks precede the replica's measured window.
	readersWarm = 50
	// snapshotParseEvery: /snapshot bodies decoded in full, one in this
	// many; every body's head is checked.
	snapshotParseEvery = 10
)

func readersSpec(seed int64) fleetSpec {
	return fleetSpec{floors: scenario.Names(), streamed: []string{"large-office"}, seed: seed, tick: readersTick}
}

type opKind int

const (
	opSnapshot opKind = iota
	opAdmit
	opRemove
)

// op is one scheduled request of the open loop.
type op struct {
	due  time.Duration // after the schedule's start
	kind opKind
	id   string // tenant read, admitted or removed
	spec string // admission scenario
}

// readersSchedule is the fixed request schedule: a /snapshot read every
// snapshotEvery, round-robin over the hosted tenants, plus an admission
// of a fresh gen: floor every admitEvery, removed admitLife later.
func readersSchedule(span time.Duration, tenants []string, seed int64) []op {
	var ops []op
	for i, t := 0, snapshotEvery; t <= span; i, t = i+1, t+snapshotEvery {
		ops = append(ops, op{due: t, kind: opSnapshot, id: tenants[i%len(tenants)]})
	}
	for k, t := 0, admitOffset; t+admitLife <= span; k, t = k+1, t+admitEvery {
		id := fmt.Sprintf("admit-%d", k)
		spec := fmt.Sprintf("gen:stations=24;boards=2;seed=%d", seed*1000+int64(k))
		ops = append(ops, op{due: t, kind: opAdmit, id: id, spec: spec}, op{due: t + admitLife, kind: opRemove, id: id})
	}
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].due < ops[b].due })
	return ops
}

// request sends one scheduled op and checks its response.
func (r *runner) request(client *http.Client, d *daemon, o op, links map[string]int, reads int) error {
	var (
		resp *http.Response
		err  error
	)
	want := http.StatusOK
	switch o.kind {
	case opSnapshot:
		resp, err = client.Get(d.floorURL(o.id, "/snapshot"))
	case opAdmit:
		q := url.Values{"spec": {o.spec}, "id": {o.id}, "wl": {"none"}}
		resp, err = client.Post(d.base+"/floors?"+q.Encode(), "", nil)
		want = http.StatusCreated
	case opRemove:
		req, _ := http.NewRequest(http.MethodDelete, d.floorURL(o.id, ""), nil)
		resp, err = client.Do(req)
		want = http.StatusNoContent
	}
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", o.id, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s: status %d, want %d", o.id, resp.StatusCode, want)
	}
	if o.kind != opSnapshot {
		return nil
	}
	h, _, err := decodeHead(body)
	if err != nil {
		return fmt.Errorf("snapshot %s: %w", o.id, err)
	}
	if h.Floor != o.id || !h.Full {
		return fmt.Errorf("snapshot %s: got floor %q full=%v", o.id, h.Floor, h.Full)
	}
	if reads%snapshotParseEvery == 0 {
		var u floor.WireUpdate
		if err := json.Unmarshal(body, &u); err != nil {
			return fmt.Errorf("snapshot %s: %w", o.id, err)
		}
		if len(u.States) != links[o.id] {
			return fmt.Errorf("snapshot %s: %d states, floor has %d links", o.id, len(u.States), links[o.id])
		}
	}
	return nil
}

// readersRep is one launch of the fleet-readers measurement.
type readersRep struct {
	setup, work, cpu, rss float64
	snapshots             []float64 // GET /snapshot latency from due, ms
	admits                []float64 // POST /floors latency from due, ms
	lags                  []float64 // stream event arrival minus due, ms
	lateness              []float64 // generator: send time minus due, ms
	kbPerTick, resyncs    float64
	vsec                  float64
	streams               []*streamCheck
}

// readersRep launches planed paced on every preset floor, streams one
// tenant, and drives the open-loop request schedule over a second
// connection, timing each request from when it was due.
func (r *runner) readersRep(spec fleetSpec, span time.Duration) (readersRep, error) {
	var rep readersRep
	d, setup, links, err := r.startPlaned(spec)
	if err != nil {
		return rep, err
	}
	defer d.kill()
	rep.setup = setup
	ctx, cancel := r.ctx()
	defer cancel()
	streams, progress, wg, err := r.openStreams(ctx, d, spec, links)
	if err != nil {
		return rep, err
	}
	if !r.waitAll(progress, virtualStart.Seconds()) {
		return rep, fmt.Errorf("no bootstrap snapshot on the stream")
	}

	client := newClient()
	ops := readersSchedule(span, spec.floors, r.seed)
	t0 := r.since()
	cpu0, err0 := d.cpu()
	for i, o := range ops {
		due := t0 + o.due
		if w := due - r.since(); w > 0 {
			time.Sleep(w)
		}
		rep.lateness = append(rep.lateness, float64(r.since()-due)/float64(time.Millisecond))
		err := r.request(client, d, o, links, i)
		ms := float64(r.since()-due) / float64(time.Millisecond)
		r.tally.op(err)
		switch o.kind {
		case opSnapshot:
			rep.snapshots = append(rep.snapshots, ms)
		case opAdmit:
			rep.admits = append(rep.admits, ms)
		}
	}
	t1 := r.since()
	cpu1, err1 := d.cpu()
	client.CloseIdleConnections()
	ex, err := d.stop(drainTimeout)
	r.tally.op(err)
	wg.Wait()
	if err0 != nil || err1 != nil {
		return rep, fmt.Errorf("planed cpu: %v %v", err0, err1)
	}

	sc := streams[0]
	serving := d.servingAt.Sub(r.base)
	var bytes, resyncs float64
	var first, last *streamEvent
	for j := 1; j < len(sc.events); j++ {
		e := &sc.events[j]
		if e.Arrival < t0 || e.Arrival > t1 {
			continue
		}
		rep.lags = append(rep.lags, float64(lag(e.Arrival, serving, e.Seq, readersTick))/float64(time.Millisecond))
		bytes += float64(e.Bytes)
		if e.Full {
			resyncs++
		}
		if first == nil {
			first = e
		}
		last = e
	}
	if first == nil || last == first {
		return rep, fmt.Errorf("stream delivered no events during the schedule")
	}
	ticks := float64(last.Seq - first.Seq + 1)
	rep.work, rep.cpu, rep.rss = (t1 - t0).Seconds(), (cpu1 - cpu0).Seconds(), ex.PeakRSSMB
	rep.kbPerTick, rep.resyncs = bytes/ticks/1024, resyncs/ticks
	rep.vsec = (last.AtS - first.AtS) / (last.Arrival - first.Arrival).Seconds()
	rep.streams = streams
	return rep, nil
}

// readersE2E reports medians over planedReps launches, each running an
// equal share of the schedule, then proves the streams against the
// replica.
func (r *runner) readersE2E() (map[string]float64, error) {
	spec := readersSpec(r.seed)
	span := time.Duration(r.seconds) * time.Second / planedReps
	setup, err := r.setupSamples(spec, setupOnly)
	if err != nil {
		return nil, err
	}
	var work, cpu, rss, p50, p90, kb, resync, vsec []float64
	var snaps, admits, lags, lateness []float64
	var streams []*streamCheck
	for i := 0; i < planedReps; i++ {
		rep, err := r.readersRep(spec, span)
		if err != nil {
			return nil, err
		}
		s50, ok50 := percentile(rep.snapshots, 0.5)
		s90, ok90 := percentile(rep.snapshots, 0.9)
		if !ok50 || !ok90 {
			return nil, fmt.Errorf("too few snapshot reads (%d) for p90", len(rep.snapshots))
		}
		setup, work, cpu, rss = append(setup, rep.setup), append(work, rep.work), append(cpu, rep.cpu), append(rss, rep.rss)
		p50, p90 = append(p50, s50), append(p90, s90)
		kb, resync, vsec = append(kb, rep.kbPerTick), append(resync, rep.resyncs), append(vsec, rep.vsec)
		snaps, admits = append(snaps, rep.snapshots...), append(admits, rep.admits...)
		lags, lateness = append(lags, rep.lags...), append(lateness, rep.lateness...)
		streams = append(streams, rep.streams...)
	}
	r.reportPercentiles("lag_ms", lags)
	r.reportPercentiles("snapshot_ms", snaps)
	r.reportPercentiles("admit_ms", admits)
	r.reportPercentiles("generator_lateness_ms", lateness)
	r.note("wire_kb_per_tick", kb)
	r.note("resync_ratio", resync)
	r.note("vsec_per_s", vsec)
	r.note("cpu_s", cpu)
	r.note("setup_s", setup)
	if err := r.parity(spec, streams); err != nil {
		return nil, err
	}
	return map[string]float64{
		"setup_s":     median(setup),
		"work_s":      median(work),
		"op_p50_ms":   median(p50),
		"op_p90_ms":   median(p90),
		"peak_rss_mb": median(rss),
	}, nil
}

// reportPercentiles notes the median and the highest supported tail
// percentile of a latency sample, with its size.
func (r *runner) reportPercentiles(name string, xs []float64) {
	out := map[string]any{"samples": len(xs)}
	if v, ok := percentile(xs, 0.5); ok {
		out["p50"] = v
	}
	if v, q, ok := highestPercentile(xs, 0.9, 0.99); ok {
		out[fmt.Sprintf("p%g", q*100)] = v
	}
	r.note(name, out)
}

// readersLayers runs the fleet in process twice, paced like planed for
// half of --seconds each,
// with the same request schedule issued as public calls: Runtime.Snapshot
// plus floor.WireBytes for reads, floor.New plus Fleet.Add for
// admissions, Fleet.Remove for removals.
func (r *runner) readersLayers() (map[string]float64, error) {
	spec := readersSpec(r.seed)
	span := time.Duration(r.seconds) * time.Second / 2
	from, to := uint64(readersWarm+1), uint64(readersWarm)+uint64(span/readersTick)
	readers := func(rp *replica, out *replicaRun) func() {
		ops := readersSchedule(span, spec.floors, r.seed)
		done := make(chan struct{})
		go func() {
			defer close(done)
			start := time.Now()
			for _, o := range ops {
				time.Sleep(time.Until(start.Add(o.due)))
				switch o.kind {
				case opSnapshot:
					rt, ok := rp.fleet.Get(o.id)
					if !ok {
						r.tally.op(fmt.Errorf("replica has no tenant %s", o.id))
						continue
					}
					t0 := time.Now()
					u, ok := rt.Snapshot()
					out.reads = append(out.reads, float64(time.Since(t0))/float64(time.Microsecond))
					if ok {
						_, err := floor.WireBytes(u)
						r.tally.op(err)
					}
				case opAdmit:
					t0 := time.Now()
					rt, err := floor.New(floor.Config{ID: o.id, Scenario: o.spec, Options: planedOptions(r.seed),
						Start: rp.fleet.Now(), Cadence: cadence, Buffer: ringSize})
					out.builds = append(out.builds, float64(time.Since(t0))/float64(time.Millisecond))
					if err == nil {
						err = rp.fleet.Add(rt)
					}
					r.tally.op(err)
				case opRemove:
					if !rp.fleet.Remove(o.id) {
						r.tally.op(fmt.Errorf("replica: no admitted tenant %s", o.id))
					}
				}
			}
		}()
		return func() { <-done }
	}
	return r.layerRuns(spec, from, to, true, readers)
}
