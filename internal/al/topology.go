package al

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

// linkKey indexes one directed link on one medium.
type linkKey struct {
	src, dst int
	medium   core.Medium
}

// Topology is the abstraction-layer view of a deployment: every directed
// link of every medium, indexed by station. Link order is insertion order,
// so a topology built deterministically enumerates deterministically —
// consumers (the mesh router, metric campaigns) inherit reproducibility.
//
// Lookups are indexed: the station list and the per-pair/per-medium link
// indices are maintained on Add, so Stations, Between and Node.Link cost
// a map hit instead of a scan (metric campaigns call them per tick).
type Topology struct {
	links []Link
	out   map[int][]Link
	seen  map[int]bool

	stations   []int // sorted station list, rebuilt lazily after Add
	stationsOK bool
	byPair     map[[2]int][]Link
	byKey      map[linkKey]Link

	// Snapshot cache: valid while the topology membership (addGen) and
	// the per-link state-version sum are unchanged at the same instant.
	// Only populated when every link implements Versioned — otherwise
	// staleness cannot be detected and every call re-evaluates.
	addGen     uint64
	snap       *Snapshot
	snapAt     time.Duration
	snapAddGen uint64
	snapVerSum uint64
	snapOK     bool

	// Shared snapshot indices: the byKey/byPair maps of a snapshot are a
	// pure function of the link list (states sit at link-insertion
	// positions), so one immutable copy per membership generation serves
	// every snapshot taken from it instead of re-inserting thousands of
	// map entries per tick. Rebuilt when idxGen != addGen.
	idxGen    uint64
	idxByKey  map[linkKey]int
	idxByPair map[[2]int][]int

	// Slab ring for incremental snapshots: the LinkState slab of a
	// topology-built snapshot is recycled once snapshotSlabRing newer
	// snapshots exist (the validity contract Snapshot documents). Ring
	// depth 3 keeps the previous snapshot — the incremental copy source
	// and the floor runtime's diff base — plus one generation of slack
	// alive while the next one is being filled. Owned by the topology's
	// driving goroutine, like all Topology state.
	slabs    [snapshotSlabRing][]LinkState
	slabNext int

	// dirtyScratch and shardScratch are per-build scratch (the dirty
	// index list and its per-worker shards), retained across builds so a
	// steady-state tick allocates nothing. Owned by the driving
	// goroutine; shard slices are handed read-only to pool workers that
	// all join before the build returns.
	dirtyScratch []int
	shardScratch [][]int
}

// snapshotSlabRing is the number of topology-built snapshots alive at
// once: a snapshot's slab is reused by the third following build.
const snapshotSlabRing = 3

// snapParallelThreshold is the dirty-link count below which concurrent
// evaluation is not worth the goroutine fan-out.
const snapParallelThreshold = 64

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{
		out:    make(map[int][]Link),
		seen:   make(map[int]bool),
		byPair: make(map[[2]int][]Link),
		byKey:  make(map[linkKey]Link),
	}
}

// Add registers a directed link. Re-adding a (src, dst, medium) triple
// appends to the enumeration order but replaces the indexed entry.
func (tp *Topology) Add(l Link) {
	src, dst := l.Endpoints()
	tp.links = append(tp.links, l)
	tp.out[src] = append(tp.out[src], l)
	tp.seen[src] = true
	tp.seen[dst] = true
	tp.stationsOK = false
	tp.addGen++
	pair := [2]int{src, dst}
	tp.byPair[pair] = append(tp.byPair[pair], l)
	tp.byKey[linkKey{src, dst, l.Medium()}] = l
}

// Links enumerates every link in insertion order.
func (tp *Topology) Links() []Link { return tp.links }

// Stations lists the station numbers known to the topology, ascending.
// The returned slice is cached and shared — callers must not mutate it.
func (tp *Topology) Stations() []int {
	if !tp.stationsOK {
		// A fresh slice every rebuild: slices handed out before an Add
		// must keep their contents.
		stations := make([]int, 0, len(tp.seen))
		for s := range tp.seen {
			stations = append(stations, s)
		}
		sort.Ints(stations)
		tp.stations = stations
		tp.stationsOK = true
	}
	return tp.stations
}

// Between returns the links from src to dst across all media, in insertion
// order (at most one per medium in a well-formed topology). The returned
// slice is the topology's index — callers must not mutate it.
func (tp *Topology) Between(src, dst int) []Link {
	return tp.byPair[[2]int{src, dst}]
}

// Node returns the station-scoped view.
func (tp *Topology) Node(station int) Node { return Node{Station: station, tp: tp} }

// Feed writes the current metrics of every link into a 1905 metric table.
// It reads Metrics only — the per-tick hot path needs neither the full
// LinkState nor the snapshot's lookup indices; the batching lives in the
// shared channel plane, which advances once per instant for all links.
func (tp *Topology) Feed(mt *core.MetricTable, t time.Duration) {
	Feed(mt, t, tp.links...)
}

// Snapshot evaluates every link of the topology at one instant in a
// single pass and returns the indexed result. The underlying channel
// plane advances once per instant, so a whole-floor snapshot costs one
// schedule evaluation plus a cheap per-link read — the batched read path
// behind the mesh survey and the campaign harnesses (Feed shares the
// plane batching but stays a metrics-only loop).
//
// When every link reports a state version (Versioned), repeated calls at
// one instant with no intervening state change return the cached
// snapshot: the version sum is recorded after evaluation (evaluating a
// link may advance its own adaptation state, e.g. the WiFi SNR EWMA), so
// a hit proves nothing has moved since the cached evaluation finished.
//
// Construction is incremental: while the membership is unchanged, each
// link that proves itself time-invariant at t (Stable — StableAt holds
// and its StateVersion matches the previous snapshot's recorded Version)
// is served from the previous slab with only Metrics.UpdatedAt moved;
// everything else — WiFi links always, probed or transition-touched PLC
// links — is re-evaluated, concurrently across a bounded worker pool when
// the dirty set is large. Workers are sharded by undirected endpoint pair
// so the two directions of a symmetric pair (which share one pair core in
// the channel plane) never evaluate concurrently.
//
// The returned snapshot is shared and read-only, and its backing slab is
// recycled: it stays valid until the third following Snapshot call on
// this topology. Callers that retain states across more calls (long-lived
// publication buffers, subscriber bootstraps) must copy them.
func (tp *Topology) Snapshot(t time.Duration) *Snapshot {
	if tp.snapOK && tp.snapAt == t && tp.snapAddGen == tp.addGen {
		// Only a repeated call at the cached instant pays the O(links)
		// version walk; a fresh instant skips straight to the build.
		if sum, ok := tp.versionSum(); ok && tp.snapVerSum == sum {
			return tp.snap
		}
	}
	s := tp.buildSnapshot(t)
	// The post-evaluation version sum falls out of the slab: EvalLink
	// records each link's version after evaluating it, and versions are
	// monotonic, so the folded slab sum is at most the live sum — a later
	// same-instant call can only miss (and rebuild), never falsely hit.
	post, versioned := uint64(0), true
	for i := range s.states {
		if !s.states[i].VersionOK {
			versioned = false
			break
		}
		post += s.states[i].Version
	}
	if versioned {
		tp.snapAt, tp.snapVerSum = t, post
		tp.snapOK = true
	} else {
		tp.snapOK = false
	}
	tp.snap, tp.snapAddGen = s, tp.addGen
	return s
}

// buildSnapshot assembles a snapshot at t over the shared index maps and
// the next ring slab, reusing the previous snapshot's states for links
// that prove themselves time-invariant (see Snapshot).
func (tp *Topology) buildSnapshot(t time.Duration) *Snapshot {
	tp.ensureIndex()
	slab := tp.nextSlab()
	s := &Snapshot{At: t, states: slab, byKey: tp.idxByKey, byPair: tp.idxByPair}

	var prev []LinkState
	if tp.snap != nil && tp.snapAddGen == tp.addGen {
		prev = tp.snap.states
	}
	dirty := tp.dirtyScratch[:0]
	for i, l := range tp.links {
		if prev != nil {
			if st, ok := l.(Stable); ok {
				old := &prev[i]
				// StableAt first: it advances the channel to t, so the
				// version read that follows is current (an epoch bump
				// lands the link in the dirty set, as it must).
				if old.VersionOK && st.StableAt(t) && st.StateVersion() == old.Version {
					slab[i] = *old
					slab[i].Metrics.UpdatedAt = t
					continue
				}
			}
		}
		dirty = append(dirty, i)
	}
	tp.dirtyScratch = dirty
	tp.evalDirty(slab, dirty, t)
	return s
}

// ensureIndex rebuilds the shared byKey/byPair position indices after a
// membership change. The maps are immutable once published into a
// snapshot — a later Add builds fresh ones, so snapshots handed out
// earlier keep consistent indices.
func (tp *Topology) ensureIndex() {
	if tp.idxByKey != nil && tp.idxGen == tp.addGen {
		return
	}
	byKey := make(map[linkKey]int, len(tp.links))
	byPair := make(map[[2]int][]int)
	for i, l := range tp.links {
		src, dst := l.Endpoints()
		byKey[linkKey{src, dst, l.Medium()}] = i
		pair := [2]int{src, dst}
		byPair[pair] = append(byPair[pair], i)
	}
	tp.idxByKey, tp.idxByPair, tp.idxGen = byKey, byPair, tp.addGen
}

// nextSlab returns the next ring slab sized to the link count. A slab is
// handed to a new snapshot only after snapshotSlabRing-1 newer snapshots
// exist, which is what the Snapshot validity contract promises.
func (tp *Topology) nextSlab() []LinkState {
	n := len(tp.links)
	slab := tp.slabs[tp.slabNext]
	if cap(slab) < n {
		slab = make([]LinkState, n)
	}
	slab = slab[:n]
	tp.slabs[tp.slabNext] = slab
	tp.slabNext = (tp.slabNext + 1) % snapshotSlabRing
	return slab
}

// evalDirty evaluates the dirty links into their slab positions — serial
// below snapParallelThreshold, otherwise across a bounded worker pool.
// Links are sharded by undirected endpoint pair: the two directions of a
// symmetric pair share one pairCore in the channel plane, and keeping
// them on one worker means its lazily materialised per-carrier vectors
// are never built by two goroutines at once (the plane's own locking
// also guarantees this; the sharding removes even that contention and is
// the defensive invariant the -race stress test pins). Every slab index
// is written by exactly one worker, and all evaluation inputs are either
// per-link or guarded inside the channel plane, so the resulting values
// are independent of the worker count.
func (tp *Topology) evalDirty(slab []LinkState, dirty []int, t time.Duration) {
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	if len(dirty) < snapParallelThreshold || workers <= 1 {
		for _, i := range dirty {
			slab[i] = EvalLink(tp.links[i], t)
		}
		return
	}
	shards := tp.shardScratch
	if cap(shards) < workers {
		shards = make([][]int, workers)
	}
	shards = shards[:workers]
	for w := range shards {
		shards[w] = shards[w][:0]
	}
	for _, i := range dirty {
		src, dst := slabPair(tp.links[i])
		shards[pairShard(src, dst, workers)] = append(shards[pairShard(src, dst, workers)], i)
	}
	tp.shardScratch = shards
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		if len(shards[w]) == 0 {
			continue
		}
		wg.Add(1)
		go func(idxs []int) {
			defer wg.Done()
			for _, i := range idxs {
				slab[i] = EvalLink(tp.links[i], t)
			}
		}(shards[w])
	}
	wg.Wait()
}

// slabPair returns a link's endpoints in undirected (lo, hi) order.
func slabPair(l Link) (int, int) {
	src, dst := l.Endpoints()
	if src > dst {
		src, dst = dst, src
	}
	return src, dst
}

// pairShard maps an undirected pair onto a worker index with a cheap
// multiplicative mix, so both directions of one pair always collide.
func pairShard(lo, hi, workers int) int {
	h := uint64(lo)*0x9e3779b97f4a7c15 + uint64(hi)
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return int(h % uint64(workers))
}

// versionSum folds the state versions of every link; ok is false when
// some link does not implement Versioned (the sum is then meaningless
// and snapshots are never cached). Versions are monotonic counters, so
// an unchanged sum implies every summand is unchanged.
func (tp *Topology) versionSum() (sum uint64, ok bool) {
	for _, l := range tp.links {
		v, isV := l.(Versioned)
		if !isV {
			return 0, false
		}
		sum += v.StateVersion()
	}
	return sum, true
}

// Node is one station's view of the topology: its attached links across
// media — what the 1905 abstraction layer presents to the layers above.
type Node struct {
	Station int
	tp      *Topology
}

// Links enumerates the station's outgoing links across all media.
func (n Node) Links() []Link { return n.tp.out[n.Station] }

// Link returns the station's outgoing link to dst on the given medium.
func (n Node) Link(m core.Medium, dst int) (Link, bool) {
	l, ok := n.tp.byKey[linkKey{n.Station, dst, m}]
	return l, ok
}
