package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/al"
	"repro/internal/floor"
)

// parityRing is the replica's subscriber ring during the parity replay:
// deep enough that the checker never drops a tick (the ring size does
// not enter the wire bytes).
const parityRing = 1 << 15

// delivery is one event a planed subscriber received, as the parity
// replay needs it.
type delivery struct {
	rep    int // which stream of the tenant (one per planed launch)
	full   bool
	digest wireDigest
}

// parity replays what planed streamed against an in-process replica of
// the same fleet. Every delivered event must be byte-identical to the
// replica's wire JSON for that seq — planed's output is a pure function
// of (scenario, seed, virtual time) at one cadence, so every launch of
// one run streams the same bytes — and folding the replica's updates in
// the order each stream delivered them, as floor.Apply does, must give
// the tenant its full link count. Byte identity with json.Marshal of a
// floor.WireUpdate is also what proves that every event parses as one.
func (r *runner) parity(spec fleetSpec, streams []*streamCheck) error {
	clock := func() int64 { return 0 }
	fleet := floor.NewFleet(virtualStart)
	tenants := map[string]*tenant{}
	for _, scen := range spec.floors {
		tn, _, err := newTenant(spec, scen, false, parityRing, clock)
		if err == nil {
			err = fleet.Add(tn.rt)
		}
		if err != nil {
			fleet.Close()
			return fmt.Errorf("parity replica: %w", err)
		}
		tenants[scen] = tn
	}

	// Per tenant: seq -> the events streams delivered at that seq.
	plans := map[string]map[uint64][]delivery{}
	reps := map[string]int{}
	var maxSeq uint64
	for _, sc := range streams {
		plan := plans[sc.tenant]
		if plan == nil {
			plan = map[uint64][]delivery{}
			plans[sc.tenant] = plan
		}
		rep := reps[sc.tenant]
		reps[sc.tenant]++
		for _, e := range sc.events {
			plan[e.Seq] = append(plan[e.Seq], delivery{rep, e.Full, e.Digest})
			maxSeq = max(maxSeq, e.Seq)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	fulls := map[string]chan floor.Update{}
	needFull := map[string]map[uint64]bool{}
	for id, plan := range plans {
		need := map[uint64]bool{}
		total := 0
		for seq, ds := range plan {
			total += len(ds)
			for _, d := range ds {
				if d.full {
					need[seq] = true
				}
			}
		}
		tn := tenants[id]
		sub, _, _ := tn.rt.Subscribe()
		ch := make(chan floor.Update, len(need)+1)
		fulls[id], needFull[id] = ch, need
		tables := make([]map[floor.Key]al.LinkState, reps[id])
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sub.Close()
			matched := 0
			for matched < total {
				u, dropped, err := sub.Next(context.Background())
				if err != nil {
					break
				}
				if dropped > 0 {
					r.tally.op(fmt.Errorf("parity replica of %s dropped %d updates", id, dropped))
				}
				ds := plan[u.Seq]
				if len(ds) == 0 {
					continue
				}
				// The tick's full snapshot, when some stream received
				// one here (a bootstrap or a resync); the first
				// publication is full by itself.
				full := u
				if need[u.Seq] && !u.Full {
					select {
					case full = <-ch:
					case <-stop:
						return
					}
				}
				for _, d := range ds {
					pub := u
					if d.full {
						pub = full
					}
					matched++
					data, err := floor.WireBytes(pub)
					if err != nil {
						r.tally.op(fmt.Errorf("parity replica %s seq %d: %w", id, u.Seq, err))
						continue
					}
					tables[d.rep] = floor.Apply(tables[d.rep], pub)
					if f := d.digest.firstDiff(digest(r.hashSeed, data)); f != "" {
						r.tally.op(fmt.Errorf("parity: %s seq %d (stream %d) differs from planed in %s", id, u.Seq, d.rep, f))
					} else if n := len(tables[d.rep]); n != tn.links {
						r.tally.op(fmt.Errorf("parity: %s stream %d folds to %d links at seq %d, floor has %d", id, d.rep, n, u.Seq, tn.links))
					} else {
						r.tally.op(nil)
					}
				}
			}
			if matched < total {
				r.tally.op(fmt.Errorf("parity: replica of %s reproduced %d of %d delivered events", id, matched, total))
			}
		}()
	}

	deadline := time.Now().Add(r.remaining())
	for {
		lo := ^uint64(0)
		for _, tn := range tenants {
			s, _ := tn.rt.Seq()
			lo = min(lo, s)
		}
		if lo >= maxSeq {
			break
		}
		if time.Now().After(deadline) {
			close(stop) // releases checkers waiting on a full never sent
			break
		}
		fleet.Advance(cadence)
		for id, need := range needFull {
			// Only the first Advance ticks twice (the fleet's clock
			// starts one cadence before the first tick is due), and seq 1
			// is a full publication itself.
			if seq, _ := tenants[id].rt.Seq(); need[seq] && seq > 1 {
				u, _ := tenants[id].rt.Snapshot()
				fulls[id] <- u
			}
		}
	}
	fleet.Close()
	wg.Wait()
	return nil
}
