package main

import (
	"fmt"
	"time"
)

const (
	// officeWarm ticks run before the office-traffic window opens, so
	// caches fill and the traffic plane reaches its working set.
	officeWarm = 600
	// officeWindowPerSecond sets the fixed virtual window: this many
	// virtual seconds (ticks) per --seconds. A faster build finishes
	// the same window sooner rather than covering more of the day.
	officeWindowPerSecond = 100
)

func officeSpec(seed int64) fleetSpec {
	floors := []string{"large-office", fmt.Sprintf("gen:stations=40;boards=2;seed=%d", seed)}
	return fleetSpec{floors: floors, streamed: floors, wl: "auto", policy: "hybrid", seed: seed, tick: time.Microsecond}
}

// officeWindow is the fixed virtual window in seqs.
func (r *runner) officeWindow() (from, to uint64) {
	from = officeWarm + 1
	return from, from + uint64(officeWindowPerSecond*r.seconds)
}

// officeRep is one launch of the office-traffic measurement.
type officeRep struct {
	setup, work, cpu, rss float64
	p50, p90              float64 // tick interval at the subscribers, ms
	intervals             int
	kbPerTick, resyncs    float64
	streams               []*streamCheck
}

// officeRep launches planed closed-loop on the traffic-loaded office
// fleet and times the fixed virtual window [va, vb] as its two
// subscribers see it.
func (r *runner) officeRep(spec fleetSpec, va, vb float64) (officeRep, error) {
	var rep officeRep
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
	okA := r.waitAll(progress, va)
	cpuA, errA := d.cpu()
	okB := okA && r.waitAll(progress, vb)
	cpuB, errB := d.cpu()
	if !okB {
		r.tally.op(fmt.Errorf("streams did not cover the virtual window [%v, %v] s in time", va, vb))
	}
	ex, err := d.stop(drainTimeout)
	r.tally.op(err)
	wg.Wait()
	if !okB || errA != nil || errB != nil {
		return rep, fmt.Errorf("office-traffic window not measured (cpu: %v %v)", errA, errB)
	}

	evs := make([][]streamEvent, len(streams))
	var intervals []float64
	var bytes, resyncs float64
	for i, sc := range streams {
		evs[i] = sc.events
		var prev *streamEvent
		for j := range sc.events {
			e := &sc.events[j]
			if e.AtS < va || e.AtS > vb {
				prev = nil
				continue
			}
			if prev != nil {
				intervals = append(intervals, float64(e.Arrival-prev.Arrival)/float64(time.Millisecond))
			}
			if e.AtS > va {
				bytes += float64(e.Bytes)
				if e.Full && j > 0 {
					resyncs++
				}
			}
			prev = e
		}
	}
	work, ok := windowCut(evs, va, vb)
	if !ok {
		return rep, fmt.Errorf("window cut failed")
	}
	p50, ok50 := percentile(intervals, 0.5)
	p90, ok90 := percentile(intervals, 0.9)
	if !ok50 || !ok90 {
		return rep, fmt.Errorf("too few tick intervals (%d) for p90", len(intervals))
	}
	ticks := (vb - va) / cadence.Seconds() * float64(len(streams))
	return officeRep{setup: setup, work: work.Seconds(), cpu: (cpuB - cpuA).Seconds(), rss: ex.PeakRSSMB,
		p50: p50, p90: p90, intervals: len(intervals),
		kbPerTick: bytes / ticks / 1024, resyncs: resyncs / ticks, streams: streams}, nil
}

// officeE2E reports medians over planedReps launches, then proves the
// launches' streams against the in-process replica.
func (r *runner) officeE2E() (map[string]float64, error) {
	spec := officeSpec(r.seed)
	from, to := r.officeWindow()
	va, vb := atOf(from).Seconds(), atOf(to).Seconds()
	setup, err := r.setupSamples(spec, setupOnly)
	if err != nil {
		return nil, err
	}
	var work, cpu, rss, p50, p90, kb, resync, vsec []float64
	var streams []*streamCheck
	for i := 0; i < planedReps; i++ {
		rep, err := r.officeRep(spec, va, vb)
		if err != nil {
			return nil, err
		}
		setup, work, cpu, rss = append(setup, rep.setup), append(work, rep.work), append(cpu, rep.cpu), append(rss, rep.rss)
		p50, p90 = append(p50, rep.p50), append(p90, rep.p90)
		kb, resync = append(kb, rep.kbPerTick), append(resync, rep.resyncs)
		vsec = append(vsec, (vb-va)/rep.work)
		streams = append(streams, rep.streams...)
	}
	r.note("vsec_per_s", vsec)
	r.note("cpu_s", cpu)
	r.note("window_virtual_s", vb-va)
	r.note("wire_kb_per_tick", kb)
	r.note("resync_ratio", resync)
	r.note("setup_s", setup)
	r.note("tick_interval_p50_ms", p50)
	r.note("tick_interval_p90_ms", p90)
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

// officeLayers runs the office fleet in process, closed loop, over the
// same window as the end-to-end run — untraced, then traced — and
// reports the per-layer breakdown.
func (r *runner) officeLayers() (map[string]float64, error) {
	from, to := r.officeWindow()
	return r.layerRuns(officeSpec(r.seed), from, to, false, nil)
}
