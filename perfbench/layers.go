package main

import (
	"fmt"
	"time"
)

// campaignIDs are the experiment registry ids, one per-layer metric
// each. A job of an id not listed here still counts in the campaign
// totals.
var campaignIDs = []string{
	"fig03", "fig04", "fig06", "fig07", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
	"fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24",
	"fig_flows_fairness", "fig_flows_churn", "table1", "table2", "table3",
}

// layerUnits lists the per-layer metrics every traced run reports. A
// layer that does no work on a workload reports 0 there.
var layerUnits = func() map[string]string {
	u := map[string]string{
		"floor.fleet_advance_ms.p50":    "ms",
		"floor.fleet_advance_ms.p99":    "ms",
		"floor.fleet_advance_traced_us": "us",
		"traffic.pretick_us":            "us",
		"al.snapshot_us":                "us",
		"al.snapshot_us.p99":            "us",
		"traffic.tick_us":               "us",
		"floor.publish_us":              "us",
		"floor.tick_unexplained_us":     "us",
		"floor.wire_encode_us":          "us",
		"floor.sse_write_us":            "us",
		"floor.snapshot_read_us.p50":    "us",
		"floor.snapshot_read_us.p90":    "us",
		"testbed.build_ms":              "ms",
		"trace.overhead_frac":           "ratio",
		"al.diff_states":                "count",
		"al.moved_plc":                  "count",
		"al.moved_wifi":                 "count",
		"floor.wire_bytes":              "bytes",
		"fanout.drops":                  "count",
		"fanout.drops.traced":           "count",
		"traffic.active_flows":          "count",
		"traffic.arrivals":              "count",
		"traffic.reroutes":              "count",
		"go.allocs_per_tick":            "count",
		"go.alloc_kb_per_tick":          "KiB",
		"go.gc_cpu_frac":                "ratio",
		"go.allocs_per_tick.traced":     "count",
		"go.alloc_kb_per_tick.traced":   "KiB",
		"go.gc_cpu_frac.traced":         "ratio",
		"campaign.job_ms_sum":           "ms",
		"campaign.longest_job_ms":       "ms",
		"campaign.idle_frac":            "ratio",
	}
	for _, id := range campaignIDs {
		u["campaign.job_ms."+id] = "ms"
	}
	return u
}()

// zeroLayers is a per-layer map with every metric at 0, for the
// workload to fill in the layers it exercises.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(layerUnits))
	for k := range layerUnits {
		m[k] = 0
	}
	return m
}

// replicaRun is what one replica run measured over its window.
type replicaRun struct {
	recs   []tickRecord
	m0, m1 sample
	events map[string][]drainEvent // streamed tenants, window seqs only
	drops  uint64
	builds []float64 // floor.New, ms
	reads  []float64 // Runtime.Snapshot incl. lock wait, us
}

// replicaRun builds the replica, runs it over [from, to] (paced like
// planed's ticker when pace is set) with an optional concurrent reader
// schedule, and collects the window's records.
func (r *runner) replicaRun(spec fleetSpec, traced bool, from, to uint64, pace bool,
	readers func(rp *replica, out *replicaRun) (wait func())) (*replicaRun, error) {
	rp, err := newReplica(spec, traced, r.hashSeed)
	if err != nil {
		return nil, err
	}
	out := &replicaRun{events: map[string][]drainEvent{}}
	for _, b := range rp.builds {
		out.builds = append(out.builds, float64(b)/float64(time.Millisecond))
	}
	var wait func()
	if readers != nil {
		wait = readers(rp, out)
	}
	out.recs, out.m0, out.m1 = rp.advanceLoop(from, to, pace)
	if wait != nil {
		wait()
	}
	rp.close()
	for id, evs := range rp.events {
		for _, e := range *evs {
			if e.Seq >= from && e.Seq <= to {
				out.events[id] = append(out.events[id], e)
			}
		}
		out.drops += *rp.drops[id]
	}
	if last := rp.seq(); last < to {
		return nil, fmt.Errorf("replica stopped at seq %d of %d", last, to)
	}
	return out, nil
}

// layerWarm ticks of a discarded untraced replica precede the two
// measured runs, so neither pays the process's first-run costs (heap
// growth, page faults) and trace.overhead_frac compares like with like.
const layerWarm = 200

// layerRuns warms the process up, then runs the replica untraced and
// traced over the same window and folds the two into the per-layer
// metrics.
func (r *runner) layerRuns(spec fleetSpec, from, to uint64, pace bool,
	readers func(rp *replica, out *replicaRun) (wait func())) (map[string]float64, error) {
	if _, err := r.replicaRun(spec, false, layerWarm, layerWarm, false, nil); err != nil {
		return nil, err
	}
	un, err := r.replicaRun(spec, false, from, to, pace, readers)
	if err != nil {
		return nil, err
	}
	tr, err := r.replicaRun(spec, true, from, to, pace, readers)
	if err != nil {
		return nil, err
	}
	return r.layerMetrics(un, tr, from, to), nil
}

// tickCounts are the per-tick work counts of a run's window — pure
// functions of (scenario, seed, virtual time) when no subscriber
// dropped, so a traced and an untraced run must agree on them.
type tickCounts struct {
	diffStates, wireBytes, movedPLC, movedWiFi float64
	activeFlows, arrivals, reroutes            float64
}

func counts(run *replicaRun, ticks float64) tickCounts {
	var c tickCounts
	subs := float64(len(run.events))
	for _, evs := range run.events {
		for _, e := range evs {
			if !e.Full {
				c.diffStates += float64(e.States)
			}
			c.wireBytes += float64(e.Bytes)
			if e.Traffic != nil {
				c.activeFlows += float64(e.Traffic.ActiveFlows)
			}
		}
		var first, last *drainEvent
		for i := range evs {
			if evs[i].Traffic != nil {
				if first == nil {
					first = &evs[i]
				}
				last = &evs[i]
			}
		}
		if first != nil {
			c.arrivals += float64(last.Traffic.Arrivals - first.Traffic.Arrivals)
			c.reroutes += float64(last.Traffic.Reroutes - first.Traffic.Reroutes)
		}
	}
	if subs > 0 {
		c.diffStates /= ticks * subs
		c.wireBytes /= ticks * subs
	}
	c.activeFlows /= ticks
	c.arrivals /= ticks
	c.reroutes /= ticks
	c.movedPLC = float64(run.m1.movedPLC-run.m0.movedPLC) / ticks
	c.movedWiFi = float64(run.m1.movedWiFi-run.m0.movedWiFi) / ticks
	return c
}

// layerMetrics folds an untraced and a traced replica run of the same
// window into the per-layer metrics, checking on the way that tracing
// changed none of the bytes or work counts.
func (r *runner) layerMetrics(un, tr *replicaRun, from, to uint64) map[string]float64 {
	m := zeroLayers()
	ticks := float64(to - from + 1)

	// Untraced: the advance time distribution with tracing off.
	var adv []float64
	var advSumUn float64
	for _, rec := range un.recs {
		d := float64(rec.end - rec.start)
		adv = append(adv, d/1e6)
		advSumUn += d
	}
	p50, ok50 := percentile(adv, 0.5)
	p99, ok99 := percentile(adv, 0.99)
	r.tally.op(ruleErr("floor.fleet_advance_ms.p99", len(adv), ok50 && ok99))
	m["floor.fleet_advance_ms.p50"], m["floor.fleet_advance_ms.p99"] = p50, p99

	// Traced: the critical path of each Advance. Fleet.Advance is a
	// barrier, so a tick's blocking path is the tenant whose publication
	// landed last; its phase self times plus the unexplained remainder
	// add up to the Advance exactly.
	var pre, snap, ttick, pub, unexpl, advSumTr float64
	var snapAll []float64
	for _, rec := range tr.recs {
		crit := 0
		for i := range rec.pub {
			if rec.pub[i] > rec.pub[crit] {
				crit = i
			}
		}
		a := float64(rec.end - rec.start)
		advSumTr += a
		var cp [4]float64
		for i, mk := range rec.marks {
			ph := phases(mk, rec.pub[i])
			snapAll = append(snapAll, ph[1]/1e3)
			if i == crit {
				cp = ph
			}
		}
		pre, snap, ttick, pub = pre+cp[0], snap+cp[1], ttick+cp[2], pub+cp[3]
		unexpl += a - cp[0] - cp[1] - cp[2] - cp[3]
	}
	n := float64(len(tr.recs))
	m["traffic.pretick_us"] = pre / n / 1e3
	m["al.snapshot_us"] = snap / n / 1e3
	m["traffic.tick_us"] = ttick / n / 1e3
	m["floor.publish_us"] = pub / n / 1e3
	m["floor.tick_unexplained_us"] = unexpl / n / 1e3
	m["floor.fleet_advance_traced_us"] = advSumTr / n / 1e3
	m["trace.overhead_frac"] = (advSumTr/n)/(advSumUn/float64(len(un.recs))) - 1
	sp99, ok := percentile(snapAll, 0.99)
	r.tally.op(ruleErr("al.snapshot_us.p99", len(snapAll), ok))
	m["al.snapshot_us.p99"] = sp99

	var enc, wr []float64
	for _, evs := range tr.events {
		for _, e := range evs {
			enc = append(enc, float64(e.EncodeNS)/1e3)
			wr = append(wr, float64(e.WriteNS)/1e3)
		}
	}
	m["floor.wire_encode_us"], m["floor.sse_write_us"] = mean(enc), mean(wr)
	if len(tr.reads) > 0 {
		rp50, ok50 := percentile(tr.reads, 0.5)
		rp90, ok90 := percentile(tr.reads, 0.9)
		r.tally.op(ruleErr("floor.snapshot_read_us.p90", len(tr.reads), ok50 && ok90))
		m["floor.snapshot_read_us.p50"], m["floor.snapshot_read_us.p90"] = rp50, rp90
	}
	m["testbed.build_ms"] = mean(append(append([]float64(nil), un.builds...), tr.builds...))

	// Trace invisibility: identical wire bytes at every seq both runs
	// delivered, and identical work counts when neither dropped.
	r.compareRuns(un, tr)
	c := counts(un, ticks)
	if un.drops == 0 && tr.drops == 0 {
		if ct := counts(tr, ticks); ct != c {
			r.tally.op(fmt.Errorf("trace invisibility: work counts differ: untraced %+v, traced %+v", c, ct))
		} else {
			r.tally.op(nil)
		}
	}
	m["al.diff_states"], m["floor.wire_bytes"] = c.diffStates, c.wireBytes
	m["al.moved_plc"], m["al.moved_wifi"] = c.movedPLC, c.movedWiFi
	m["traffic.active_flows"], m["traffic.arrivals"], m["traffic.reroutes"] = c.activeFlows, c.arrivals, c.reroutes
	m["fanout.drops"], m["fanout.drops.traced"] = float64(un.drops)/ticks, float64(tr.drops)/ticks
	for suffix, run := range map[string]*replicaRun{"": un, ".traced": tr} {
		m["go.allocs_per_tick"+suffix] = float64(run.m1.mallocs-run.m0.mallocs) / ticks
		m["go.alloc_kb_per_tick"+suffix] = float64(run.m1.totalAlloc-run.m0.totalAlloc) / 1024 / ticks
		if d := run.m1.totalCPU - run.m0.totalCPU; d > 0 {
			m["go.gc_cpu_frac"+suffix] = (run.m1.gcCPU - run.m0.gcCPU) / d
		}
	}
	return m
}

// phases splits one tenant tick into its layer self times (ns):
// traffic pre-tick, snapshot evaluation (AdvanceTo's phase 2: from the
// pre-tick's end to onTick's start), traffic tick, and publish (onTick's
// return to the update reaching a harness-held subscription).
func phases(mk tickMarks, pub int64) [4]float64 {
	var pre float64
	snapStart := mk.start
	if mk.preEnd > 0 {
		pre = float64(mk.preEnd - mk.preStart)
		snapStart = mk.preEnd
	}
	return [4]float64{pre, float64(mk.onStart - snapStart), float64(mk.onEnd - mk.countEnd), float64(max(pub-mk.onEnd, 0))}
}

// compareRuns checks that two replica runs delivered byte-identical wire
// JSON at every seq both delivered as the same kind of event.
func (r *runner) compareRuns(a, b *replicaRun) {
	for id, evs := range a.events {
		type key struct {
			seq  uint64
			full bool
		}
		other := map[key]wireDigest{}
		for _, e := range b.events[id] {
			other[key{e.Seq, e.Full}] = e.Digest
		}
		compared := 0
		for _, e := range evs {
			d, ok := other[key{e.Seq, e.Full}]
			if !ok {
				continue
			}
			compared++
			if f := e.Digest.firstDiff(d); f != "" {
				r.tally.op(fmt.Errorf("trace invisibility: %s seq %d differs in %s", id, e.Seq, f))
				return
			}
		}
		if compared == 0 {
			r.tally.op(fmt.Errorf("trace invisibility: no common events for %s", id))
			continue
		}
		r.tally.op(nil)
	}
}

func ruleErr(name string, n int, ok bool) error {
	if ok {
		return nil
	}
	return fmt.Errorf("%s: %d samples leave fewer than %d beyond the percentile", name, n, minBeyond)
}
