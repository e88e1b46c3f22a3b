package traffic

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/al"
	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/plc/mac"
	"repro/internal/stats"
)

// Queueing disciplines for a station's per-medium transmit queue.
type Discipline int

const (
	// DRR shares a station's airtime across its backlogged flows
	// proportionally to their policy weights (deficit round robin in the
	// fluid limit).
	DRR Discipline = iota
	// FIFO serves a station's backlogged flows in arrival order: the
	// oldest flow owns the medium until it completes (head-of-line).
	FIFO
)

// String implements fmt.Stringer.
func (d Discipline) String() string {
	if d == FIFO {
		return "fifo"
	}
	return "drr"
}

// Salt words keying the engine's deterministic draws.
const (
	saltArrival   = 0x41525256 // interarrival draws
	saltDst       = 0x44535421 // destination picks
	saltSize      = 0x53495a45 // flow-size draws
	saltChurn     = 0x43485231 // which stations churn
	saltChurnPh   = 0x43485048 // churn phase offsets
	saltOnOffPh   = 0x4f4e4f46 // on/off phase offsets
	saltEngineMix = 0x454e4731 // workload-seed / engine-seed mixing
)

// migrateThreshold is the normalised L1 weight movement that counts as
// a route migration (and a reroute event): small proportional drifts
// are re-splits, not migrations.
const migrateThreshold = 0.25

// EngineConfig tunes an Engine beyond the workload.
type EngineConfig struct {
	// Policy selects routes (Hybrid when nil).
	Policy Policy
	// Discipline is the per-station queueing discipline (DRR default).
	Discipline Discipline
	// Seed is mixed with the workload's own seed, so one demand profile
	// replays over many floors (typically the floor/testbed seed).
	Seed int64
	// LogEvents retains the flow event log (Log) — the determinism
	// witness. Off by default: a hosted floor runs unbounded.
	LogEvents bool
}

// flow is one in-flight transfer.
type flow struct {
	id             uint64
	src, dst       int // station numbers
	srcIdx, dstIdx int
	arrived        time.Duration
	sizeBits       float64
	remaining      float64

	media   []core.Medium  // candidate media, topology order
	cands   []al.LinkState // last observed candidate states
	weights []float64      // policy split over cands (nil = unrouted)
	seenVer uint64         // sharesVer the split last saw
	frozen  bool           // an endpoint churned away
}

// Engine is the multi-flow workload plane over one floor topology. It
// is driven in virtual time — Tick once per cadence instant with the
// floor's batched snapshot — and is not safe for concurrent use (like
// the links it prices, it belongs to whoever advances the floor).
//
// A tick costs one snapshot lookup per flow candidate (map hits on the
// already-evaluated snapshot — the topology is never re-evaluated) plus
// O(active flows) drain arithmetic; policy re-splits run only for flows
// whose observed candidate state, contention neighbourhood or churn
// context actually moved.
type Engine struct {
	wl   Workload
	pol  Policy
	disc Discipline
	seed uint64
	log  bool

	// Floor shape (immutable after construction).
	stations []int       // station numbers, ascending
	index    map[int]int // station number → index
	plcDom   []int       // PLC collision domain per station index (-1: none)
	numDoms  int         // PLC domain count
	peers    [][]int     // candidate destination stations per source index
	churner  []bool      // station participates in the churn cycle
	phase    []float64   // churn phase offset (s) per station index
	arrOff   []float64   // on/off phase offset (s) per station index

	// Clock.
	started bool
	start   time.Duration
	now     time.Duration

	// Arrival state.
	arrNext []time.Duration // next arrival instant per station index
	arrN    []uint64        // arrival draw counter per station index
	sealed  bool            // admission stopped (drain phase)

	// Flows, admission order (= id order).
	flows  []*flow
	nextID uint64

	// Previous-tick context for change detection.
	lastSnap  *al.Snapshot
	active    []bool
	sharesVer uint64 // bumps when backlog counts or churn move

	// Contention state, rebuilt each tick (reused buffers).
	cnt     [2][]int     // backlogged-flow count per medium per station
	wsum    [2][]float64 // weight sum per medium per station
	head    [2][]uint64  // FIFO head flow id per medium per station
	share   [2][]float64 // airtime share per medium per station
	domN    []int        // backlogged-station count per PLC domain
	wifiN   int          // backlogged-station count, WiFi collision domain
	prevCnt [2][]int

	// Queue-depth scratch.
	qBits []float64
	qHas  []bool

	// Admission scratch, reused across ticks (owned by admit; valid only
	// within one call).
	pend dueQueue

	// ActivePairs scratch.
	pairSeen []bool
	pairBuf  []int

	// Metrics.
	arrivals  uint64
	completed uint64
	dropped   uint64
	reroutes  uint64
	resplits  uint64
	bits      float64   // delivered, cumulative
	stBits    []float64 // delivered per source station index
	fctW      stats.Welford
	fctSamp   sampler
	rateSamp  sampler // completed flows' mean rates (bits/s)
	queueSamp sampler // per-station queue depth (KB), once per tick
	rateBuf   []float64
	contBuf   []al.LinkState
	events    strings.Builder
}

// NewEngine builds the workload plane for one topology. The topology is
// only read (peer sets, PLC domains); capacities flow in through the
// per-tick snapshot.
func NewEngine(topo *al.Topology, wl Workload, cfg EngineConfig) (*Engine, error) {
	wl = wl.withDefaults()
	if wl.Name == "" {
		wl.Name = wl.Spec()
	}
	pol := cfg.Policy
	if pol == nil {
		pol = Hybrid{}
	}
	stations := topo.Stations()
	if len(stations) < 2 {
		return nil, fmt.Errorf("traffic: topology has %d stations, need >= 2", len(stations))
	}
	e := &Engine{
		wl:   wl,
		pol:  pol,
		disc: cfg.Discipline,
		seed: detrand.Hash64(uint64(wl.Seed), uint64(cfg.Seed), saltEngineMix),
		log:  cfg.LogEvents,
	}
	n := len(stations)
	e.stations = append([]int(nil), stations...)
	e.index = make(map[int]int, n)
	for i, s := range e.stations {
		e.index[s] = i
	}

	// PLC collision domains: connected components over the PLC links
	// (an AVLN — stations sharing a logical network contend for the
	// same mains cycles).
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, l := range topo.Links() {
		if l.Medium() != core.PLC {
			continue
		}
		src, dst := l.Endpoints()
		a, b := find(e.index[src]), find(e.index[dst])
		if a != b {
			parent[a] = b
		}
	}
	e.plcDom = make([]int, n)
	hasPLC := make([]bool, n)
	for _, l := range topo.Links() {
		if l.Medium() == core.PLC {
			src, dst := l.Endpoints()
			hasPLC[e.index[src]] = true
			hasPLC[e.index[dst]] = true
		}
	}
	domID := make(map[int]int)
	for i := 0; i < n; i++ {
		if !hasPLC[i] {
			e.plcDom[i] = -1
			continue
		}
		root := find(i)
		id, ok := domID[root]
		if !ok {
			id = len(domID)
			domID[root] = id
		}
		e.plcDom[i] = id
	}
	e.numDoms = len(domID)

	// Candidate destinations: stations reachable over at least one link
	// that can ever carry traffic. A cross-network pair beyond the WiFi
	// blind spot has no usable medium at all (no shared AVLN, no
	// association) — real demand never targets it, so neither does the
	// workload. Connectivity is geometric/static, so t=0 decides it.
	e.peers = make([][]int, n)
	for i, src := range e.stations {
		for _, dst := range e.stations {
			if src == dst {
				continue
			}
			for _, l := range topo.Between(src, dst) {
				if l.Connected(0) {
					e.peers[i] = append(e.peers[i], dst)
					break
				}
			}
		}
		sort.Ints(e.peers[i])
	}

	// Churn membership and phases (pure functions of seed + station).
	e.churner = make([]bool, n)
	e.phase = make([]float64, n)
	e.arrOff = make([]float64, n)
	for i, s := range e.stations {
		sid := uint64(s)
		if wl.ChurnFrac > 0 {
			e.churner[i] = detrand.Bool(wl.ChurnFrac, e.seed, sid, saltChurn)
			e.phase[i] = detrand.Uniform(e.seed, sid, saltChurnPh) * 2 * wl.ChurnSec
		}
		e.arrOff[i] = detrand.Uniform(e.seed, sid, saltOnOffPh) * (wl.OnSec + wl.OffSec)
	}

	e.arrNext = make([]time.Duration, n)
	e.arrN = make([]uint64, n)
	e.active = make([]bool, n)
	e.stBits = make([]float64, n)
	for m := 0; m < 2; m++ {
		e.cnt[m] = make([]int, n)
		e.prevCnt[m] = make([]int, n)
		e.wsum[m] = make([]float64, n)
		e.head[m] = make([]uint64, n)
		e.share[m] = make([]float64, n)
	}
	e.domN = make([]int, e.numDoms)
	e.qBits = make([]float64, n)
	e.qHas = make([]bool, n)
	return e, nil
}

// ActiveFlows reports the number of in-flight flows.
func (e *Engine) ActiveFlows() int { return len(e.flows) }

// ActivePairs invokes fn once per distinct (src, dst) station pair
// carrying at least one unfrozen in-flight flow, in flow admission
// order — the pairs whose links a pre-tick estimation driver should
// keep sounding.
func (e *Engine) ActivePairs(fn func(src, dst int)) {
	n := len(e.stations)
	if e.pairSeen == nil {
		e.pairSeen = make([]bool, n*n)
	}
	touched := e.pairBuf[:0]
	for _, f := range e.flows {
		if f.frozen || f.remaining <= 0 {
			continue
		}
		k := f.srcIdx*n + f.dstIdx
		if e.pairSeen[k] {
			continue
		}
		e.pairSeen[k] = true
		touched = append(touched, k)
		fn(f.src, f.dst)
	}
	for _, k := range touched {
		e.pairSeen[k] = false
	}
	e.pairBuf = touched[:0]
}

// mIdx maps a medium to the engine's per-medium array index.
func mIdx(m core.Medium) int {
	if m == core.PLC {
		return 0
	}
	return 1
}

// plcContentionFactor is the relative CSMA/CA efficiency of an AVLN
// with n backlogged stations versus a single saturated station (whose
// MAC overhead the link goodput already includes): the winning backoff
// shrinks (min of n draws from CW₀) but collisions — two stations
// drawing the same slot — waste whole frames. Derived from the IEEE
// 1901 timing constants the slot-level DES (mac.Medium) uses; the
// Contention primitive is the exact counterpart this approximates.
func plcContentionFactor(n int) float64 {
	if n <= 1 {
		return 1
	}
	frame := mac.MaxFrameMicros
	over1 := mac.ExchangeOverheadMicros()
	avg1 := float64(mac.CWStages[0]-1) / 2 * mac.SlotMicros
	minN := float64(mac.CWStages[0]-1) / float64(n+1) * mac.SlotMicros
	overN := over1 - avg1 + minN
	pCol := 1 - math.Pow(1-1/float64(mac.CWStages[0]), float64(n-1))
	effN := frame / ((frame + overN) * (1 + pCol))
	eff1 := frame / (frame + over1)
	return effN / eff1
}

// wifiContentionFactor models 802.11 DCF efficiency loss with n
// backlogged stations (CWmin 16): collisions waste airtime; the
// per-station share is factor/n.
func wifiContentionFactor(n int) float64 {
	if n <= 1 {
		return 1
	}
	pCol := 1 - math.Pow(1-1.0/16, float64(n-1))
	return 1 / (1 + pCol)
}

// isActive reports station presence at t under the churn cycle.
func (e *Engine) isActive(sIdx int, t time.Duration) bool {
	if !e.churner[sIdx] || e.wl.ChurnSec <= 0 {
		return true
	}
	cycle := 2 * e.wl.ChurnSec
	pos := math.Mod(t.Seconds()-e.phase[sIdx], cycle)
	if pos < 0 {
		pos += cycle
	}
	return pos < e.wl.ChurnSec
}

// nextActiveStart returns the first instant >= t at which the station
// is present.
func (e *Engine) nextActiveStart(sIdx int, t time.Duration) time.Duration {
	if e.isActive(sIdx, t) {
		return t
	}
	cycle := 2 * e.wl.ChurnSec
	pos := math.Mod(t.Seconds()-e.phase[sIdx], cycle)
	if pos < 0 {
		pos += cycle
	}
	return t + time.Duration((cycle-pos)*float64(time.Second))
}

// inOnWindow reports whether t falls in the station's on/off "on"
// window, and the seconds remaining of it.
func (e *Engine) inOnWindow(sIdx int, t time.Duration) (bool, float64) {
	cycle := e.wl.OnSec + e.wl.OffSec
	pos := math.Mod(t.Seconds()-e.arrOff[sIdx], cycle)
	if pos < 0 {
		pos += cycle
	}
	if pos < e.wl.OnSec {
		return true, e.wl.OnSec - pos
	}
	return false, 0
}

// nextOnStart returns the first instant >= t inside an on-window.
func (e *Engine) nextOnStart(sIdx int, t time.Duration) time.Duration {
	if on, _ := e.inOnWindow(sIdx, t); on {
		return t
	}
	cycle := e.wl.OnSec + e.wl.OffSec
	pos := math.Mod(t.Seconds()-e.arrOff[sIdx], cycle)
	if pos < 0 {
		pos += cycle
	}
	return t + time.Duration((cycle-pos)*float64(time.Second))
}

// addOnTime advances from by dSec seconds of *on-time*, skipping off
// windows — how bursty interarrival draws map onto the wall clock.
func (e *Engine) addOnTime(sIdx int, from time.Duration, dSec float64) time.Duration {
	t := e.nextOnStart(sIdx, from)
	for {
		_, rem := e.inOnWindow(sIdx, t)
		if dSec <= rem {
			return t + time.Duration(dSec*float64(time.Second))
		}
		dSec -= rem
		t = e.nextOnStart(sIdx, t+time.Duration(rem*float64(time.Second))+time.Nanosecond)
	}
}

// nextArrival draws the station's next arrival instant after from.
func (e *Engine) nextArrival(sIdx int, from time.Duration) time.Duration {
	sid := uint64(e.stations[sIdx])
	u := detrand.Uniform(e.seed, sid, e.arrN[sIdx], saltArrival)
	e.arrN[sIdx]++
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	gapSec := -math.Log(1-u) / (e.wl.RatePerMin / 60)
	var at time.Duration
	if e.wl.Arrival == ArrivalOnOff {
		at = e.addOnTime(sIdx, from, gapSec)
	} else {
		at = from + time.Duration(gapSec*float64(time.Second))
	}
	// Arrivals pause while the station is churned away: push into the
	// station's next presence window (and, for bursty arrivals, back
	// into an on-window — a few rounds settle both periodic constraints;
	// the cutoff keeps it bounded and deterministic).
	for i := 0; i < 8; i++ {
		moved := false
		if a := e.nextActiveStart(sIdx, at); a != at {
			at, moved = a, true
		}
		if e.wl.Arrival == ArrivalOnOff {
			if a := e.nextOnStart(sIdx, at); a != at {
				at, moved = a, true
			}
		}
		if !moved {
			break
		}
	}
	return at
}

// begin anchors the clock and the arrival processes at the first tick.
func (e *Engine) begin(t time.Duration) {
	e.started = true
	e.start, e.now = t, t
	for i := range e.stations {
		e.arrNext[i] = e.nextArrival(i, t)
		e.active[i] = e.isActive(i, t)
	}
}

// logf appends one event-log line (only when event logging is on).
func (e *Engine) logf(format string, args ...any) {
	if e.log {
		fmt.Fprintf(&e.events, format+"\n", args...)
	}
}

// Log returns the flow event log accumulated so far (empty unless
// EngineConfig.LogEvents). Equal workloads, seeds and topologies yield
// byte-identical logs — the package's determinism witness.
func (e *Engine) Log() string { return e.events.String() }

// updateActivity refreshes station presence; reports whether any
// station joined or left since the previous tick.
func (e *Engine) updateActivity(t time.Duration) bool {
	toggled := false
	for i := range e.stations {
		now := e.isActive(i, t)
		if now != e.active[i] {
			toggled = true
			if now {
				e.logf("t=%.3fs join station=%d", t.Seconds(), e.stations[i])
			} else {
				e.logf("t=%.3fs leave station=%d", t.Seconds(), e.stations[i])
			}
			e.active[i] = now
		}
	}
	if toggled {
		e.sharesVer++
	}
	return toggled
}

// SealArrivals stops admission: later ticks only drain the in-flight
// flows. A harness seals after its measurement window so every policy's
// completion-time distribution covers the same admitted flow set —
// without the drain, a faster policy completes *more* of the slow tail
// inside the window and its mean FCT reads unfairly worse.
func (e *Engine) SealArrivals() { e.sealed = true }

// due is one pending arrival gathered by admit before sorting.
type due struct {
	at   time.Duration
	sIdx int
}

// dueQueue orders pending arrivals by time, ties by station index — a
// typed sort.Interface so the per-tick stable sort stays reflection-free.
type dueQueue []due

func (q dueQueue) Len() int { return len(q) }
func (q dueQueue) Less(a, b int) bool {
	if q[a].at != q[b].at {
		return q[a].at < q[b].at
	}
	return q[a].sIdx < q[b].sIdx
}
func (q dueQueue) Swap(a, b int) { q[a], q[b] = q[b], q[a] }

// admit generates and admits the arrivals due in (prev, t], in time
// order across stations (ties: station order, then id order) so the
// MaxFlows cap drops the same arrivals in every run.
func (e *Engine) admit(t time.Duration) {
	if e.sealed {
		return
	}
	pend := e.pend[:0]
	for i := range e.stations {
		for e.arrNext[i] <= t {
			pend = append(pend, due{e.arrNext[i], i})
			e.arrNext[i] = e.nextArrival(i, e.arrNext[i])
		}
	}
	sort.Stable(pend)
	for _, p := range pend {
		e.admitOne(p.at, p.sIdx)
	}
	e.pend = pend[:0]
}

// admitOne creates one flow from station sIdx arriving at 'at'.
func (e *Engine) admitOne(at time.Duration, sIdx int) {
	peers := e.peers[sIdx]
	if len(peers) == 0 {
		return
	}
	sid := uint64(e.stations[sIdx])
	id := e.nextID
	e.nextID++
	e.arrivals++
	dst := peers[int(detrand.Hash64(e.seed, sid, id, saltDst)%uint64(len(peers)))]
	sizeBits := e.wl.SizeKB * 1024 * 8
	if e.wl.SizeSigma > 0 {
		g := detrand.Gaussian(e.seed, sid, id, saltSize)
		sizeBits *= math.Exp(e.wl.SizeSigma*g - e.wl.SizeSigma*e.wl.SizeSigma/2)
	}
	if len(e.flows) >= e.wl.MaxFlows {
		e.dropped++
		e.logf("t=%.3fs drop id=%d src=%d dst=%d bytes=%d", at.Seconds(), id, e.stations[sIdx], dst, int64(sizeBits/8))
		return
	}
	f := &flow{
		id: id, src: e.stations[sIdx], dst: dst,
		srcIdx: sIdx, dstIdx: e.index[dst],
		arrived: at, sizeBits: sizeBits, remaining: sizeBits,
	}
	e.flows = append(e.flows, f)
	e.logf("t=%.3fs arrive id=%d src=%d dst=%d bytes=%d", at.Seconds(), id, f.src, f.dst, int64(sizeBits/8))
}

// prospectiveShare estimates the airtime share a flow from station sIdx
// would get on medium m if it were (or stayed) backlogged there, from
// the previous tick's contention counts — the congestion signal the
// policies price.
func (e *Engine) prospectiveShare(sIdx, m int) float64 {
	var n int
	switch m {
	case 0:
		d := e.plcDom[sIdx]
		if d < 0 {
			return 0
		}
		n = e.domN[d]
	default:
		n = e.wifiN
	}
	if e.cnt[m][sIdx] == 0 {
		n++ // the flow would add its station to the domain
	}
	if n < 1 {
		n = 1
	}
	if m == 0 {
		return plcContentionFactor(n) / float64(n)
	}
	return wifiContentionFactor(n) / float64(n)
}

// refreshRoute updates one flow's candidate states from the snapshot
// and re-runs the policy when its inputs moved. Returns whether the
// split changed materially (a migration).
func (e *Engine) refreshRoute(f *flow, snap *al.Snapshot, snapMoved bool, t time.Duration) {
	if f.cands == nil {
		// First routing: discover the candidate links present in the
		// snapshot for this pair.
		for _, m := range [2]core.Medium{core.PLC, core.WiFi} {
			if st, ok := snap.State(f.src, f.dst, m); ok {
				f.media = append(f.media, m)
				f.cands = append(f.cands, st)
			}
		}
		snapMoved = false // states just loaded are current
	}
	changed := false
	if snapMoved {
		for ci, m := range f.media {
			st, ok := snap.State(f.src, f.dst, m)
			if !ok {
				continue
			}
			old := &f.cands[ci]
			if st.Goodput != old.Goodput || st.Capacity != old.Capacity || st.Connected != old.Connected {
				changed = true
			}
			f.cands[ci] = st
		}
	}
	// An all-zero split is "not yet routed": every policy (even a
	// non-adaptive one) keeps retrying until some candidate wakes up.
	unrouted := allZero(f.weights)
	if !unrouted && !e.pol.Adaptive() {
		return
	}
	if !unrouted && !changed && f.seenVer == e.sharesVer {
		return
	}
	f.seenVer = e.sharesVer
	if !unrouted {
		// A routed flow re-entering the policy is a route re-evaluation —
		// the adaptivity signal even when the resulting weights barely move
		// (on a small floor the proportional split can be stable under churn
		// without a single migration crossing migrateThreshold).
		e.resplits++
	}

	// Contended candidate view: scale estimate and delivery to the rate
	// the flow would actually see on each medium's collision domain. On a
	// floor that has never probed a link, the PLC capacity estimate is 0
	// (snapshots are passive — tone maps only exist under traffic); fall
	// back to the delivered goodput as the perfect-estimation view so
	// capacity-proportional policies don't read an unprobed medium as dark.
	cont := e.contBuf[:0]
	for ci, st := range f.cands {
		s := e.prospectiveShare(f.srcIdx, mIdx(f.media[ci]))
		if st.Capacity <= 0 {
			st.Capacity = st.Goodput
		}
		st.Goodput *= s
		st.Capacity *= s
		cont = append(cont, st)
	}
	e.contBuf = cont[:0]

	prev := f.weights
	if allZero(prev) {
		prev = nil
	}
	w := e.pol.Split(prev, cont)
	if prev != nil && weightShift(prev, w) > migrateThreshold {
		e.reroutes++
		e.logf("t=%.3fs migrate id=%d %s", t.Seconds(), f.id, e.describeSplit(f, w))
	} else if f.weights == nil && !allZero(w) {
		e.logf("t=%.3fs route id=%d %s", t.Seconds(), f.id, e.describeSplit(f, w))
	}
	f.weights = w
}

// describeSplit renders a weight vector for the event log.
func (e *Engine) describeSplit(f *flow, w []float64) string {
	if !e.log {
		return ""
	}
	var sum float64
	for _, x := range w {
		sum += x
	}
	var b strings.Builder
	for ci, m := range f.media {
		if ci > 0 {
			b.WriteByte(' ')
		}
		frac := 0.0
		if sum > 0 {
			frac = w[ci] / sum
		}
		fmt.Fprintf(&b, "%s=%.3f", strings.ToLower(m.String()), frac)
	}
	return b.String()
}

// allZero reports whether the weight vector is nil or all zeros.
func allZero(w []float64) bool {
	for _, x := range w {
		if x > 0 {
			return false
		}
	}
	return true
}

// weightShift is the L1 distance between two normalised weight vectors
// (2 = a full migration; 0 = unchanged).
func weightShift(a, b []float64) float64 {
	var sa, sb float64
	for _, x := range a {
		sa += x
	}
	for _, x := range b {
		sb += x
	}
	var d float64
	for i := range a {
		na, nb := 0.0, 0.0
		if sa > 0 {
			na = a[i] / sa
		}
		if i < len(b) && sb > 0 {
			nb = b[i] / sb
		}
		d += math.Abs(na - nb)
	}
	return d
}

// computeShares rebuilds backlog counts, weight sums, FIFO heads and
// per-station airtime shares for the tick, and bumps sharesVer when the
// contention neighbourhood moved.
func (e *Engine) computeShares() {
	n := len(e.stations)
	for m := 0; m < 2; m++ {
		for i := 0; i < n; i++ {
			e.cnt[m][i], e.wsum[m][i], e.head[m][i], e.share[m][i] = 0, 0, 0, 0
		}
	}
	for _, f := range e.flows {
		if f.frozen || f.remaining <= 0 {
			continue
		}
		for ci, st := range f.cands {
			if f.weights == nil || f.weights[ci] <= 0 || !st.Connected || st.Goodput <= 0 {
				continue
			}
			m := mIdx(f.media[ci])
			s := f.srcIdx
			e.cnt[m][s]++
			e.wsum[m][s] += f.weights[ci]
			if e.head[m][s] == 0 || f.id+1 < e.head[m][s] {
				e.head[m][s] = f.id + 1 // +1: 0 means "no head"
			}
		}
	}
	for d := range e.domN {
		e.domN[d] = 0
	}
	e.wifiN = 0
	for i := 0; i < n; i++ {
		if e.cnt[0][i] > 0 {
			e.domN[e.plcDom[i]]++
		}
		if e.cnt[1][i] > 0 {
			e.wifiN++
		}
	}
	for i := 0; i < n; i++ {
		if c := e.cnt[0][i]; c > 0 {
			nd := e.domN[e.plcDom[i]]
			e.share[0][i] = plcContentionFactor(nd) / float64(nd)
		}
		if c := e.cnt[1][i]; c > 0 {
			e.share[1][i] = wifiContentionFactor(e.wifiN) / float64(e.wifiN)
		}
	}
	moved := false
	for m := 0; m < 2 && !moved; m++ {
		for i := 0; i < n; i++ {
			if e.cnt[m][i] != e.prevCnt[m][i] {
				moved = true
				break
			}
		}
	}
	if moved {
		e.sharesVer++
		for m := 0; m < 2; m++ {
			copy(e.prevCnt[m], e.cnt[m])
		}
	}
}

// Tick advances the workload plane to t against the floor's batched
// snapshot for that instant (snap.At == t; the topology has already
// been evaluated exactly once — the engine performs map lookups on it
// and never re-evaluates links). The first Tick anchors the arrival
// processes and drains nothing. Returns the tick's live summary.
func (e *Engine) Tick(t time.Duration, snap *al.Snapshot) Summary {
	if !e.started {
		e.begin(t)
	}
	dt := t - e.now
	if dt < 0 {
		dt = 0
	}

	e.updateActivity(t)
	e.admit(t)

	// Freeze flows whose endpoints churned away (their completion clock
	// keeps running — the outage is the flow's problem).
	for _, f := range e.flows {
		f.frozen = !e.active[f.srcIdx] || !e.active[f.dstIdx]
	}

	snapMoved := snap != e.lastSnap
	for _, f := range e.flows {
		e.refreshRoute(f, snap, snapMoved, t)
	}
	e.computeShares()
	sum := e.drain(t, dt)
	e.now = t
	e.lastSnap = snap
	return sum
}

// drain serves every queue for dt and folds completions and metrics.
// Completions inside the tick are interpolated to their exact instant;
// airtime they free up is only redistributed at the next tick (the
// model's granularity — documented in DESIGN.md).
func (e *Engine) drain(t time.Duration, dt time.Duration) Summary {
	dtSec := dt.Seconds()
	rates := e.rateBuf[:0]
	var tickBits float64
	for _, f := range e.flows {
		if f.frozen || f.remaining <= 0 {
			continue
		}
		rate := 0.0 // bits/s
		for ci, st := range f.cands {
			w := 0.0
			if f.weights != nil {
				w = f.weights[ci]
			}
			if w <= 0 || !st.Connected || st.Goodput <= 0 {
				continue
			}
			m := mIdx(f.media[ci])
			s := f.srcIdx
			intra := 0.0
			if e.disc == FIFO {
				if e.head[m][s] == f.id+1 {
					intra = 1
				}
			} else if e.wsum[m][s] > 0 {
				intra = w / e.wsum[m][s]
			}
			rate += e.share[m][s] * intra * st.Goodput * 1e6
		}
		rates = append(rates, rate)
		if dtSec <= 0 || rate <= 0 {
			continue
		}
		// A flow that arrived mid-tick is only served from its arrival
		// instant — otherwise the interpolated completion below could land
		// before the flow even existed (a negative FCT).
		from, avail := e.now, dtSec
		if f.arrived > from {
			from = f.arrived
			avail = (t - from).Seconds()
			if avail <= 0 {
				continue
			}
		}
		bits := rate * avail
		if bits >= f.remaining {
			done := from + time.Duration(float64(t-from)*(f.remaining/bits))
			tickBits += f.remaining
			e.stBits[f.srcIdx] += f.remaining
			f.remaining = 0
			fct := (done - f.arrived).Seconds()
			e.completed++
			e.fctW.Add(fct)
			e.fctSamp.add(fct)
			if fct > 0 {
				e.rateSamp.add(f.sizeBits / fct)
			}
			e.logf("t=%.3fs complete id=%d fct=%.3fs", done.Seconds(), f.id, fct)
		} else {
			f.remaining -= bits
			tickBits += bits
			e.stBits[f.srcIdx] += bits
		}
	}
	e.rateBuf = rates[:0]

	// Compact out completed flows, preserving admission order.
	keep := e.flows[:0]
	for _, f := range e.flows {
		if f.remaining > 0 {
			keep = append(keep, f)
		}
	}
	for i := len(keep); i < len(e.flows); i++ {
		e.flows[i] = nil
	}
	e.flows = keep

	// Queue-depth tails: one sample per station holding traffic, in
	// station-index order (sampler content must not depend on any map
	// order).
	var queued float64
	for i := range e.qBits {
		e.qBits[i], e.qHas[i] = 0, false
	}
	for _, f := range e.flows {
		e.qBits[f.srcIdx] += f.remaining
		e.qHas[f.srcIdx] = true
		queued += f.remaining
	}
	for i := range e.qBits {
		if e.qHas[i] {
			e.queueSamp.add(e.qBits[i] / 8 / 1024) // KB
		}
	}

	e.bits += tickBits
	activeStations := 0
	for i := range e.active {
		if e.active[i] {
			activeStations++
		}
	}
	sum := Summary{
		AtS:            t.Seconds(),
		ActiveFlows:    len(e.flows),
		ActiveStations: activeStations,
		Arrivals:       e.arrivals,
		CompletedFlows: e.completed,
		DroppedFlows:   e.dropped,
		Reroutes:       e.reroutes,
		Fairness:       jainIndex(rates),
		QueuedBytes:    int64(queued / 8),
	}
	if dtSec > 0 {
		sum.DeliveredMbps = tickBits / dtSec / 1e6
	}
	return sum
}

// Report folds the run's metrics surface. Percentiles are NaN when
// nothing completed (stats.Percentile semantics).
func (e *Engine) Report() Report {
	r := Report{
		Workload:  e.wl.Name,
		Policy:    e.pol.Name(),
		Arrivals:  e.arrivals,
		Completed: e.completed,
		Dropped:   e.dropped,
		Reroutes:  e.reroutes,
		Resplits:  e.resplits,
		MeanFCTs:  e.fctW.Mean(),
		P50FCTs:   stats.Percentile(e.fctSamp.vals, 50),
		P95FCTs:   stats.Percentile(e.fctSamp.vals, 95),
		P99FCTs:   stats.Percentile(e.fctSamp.vals, 99),

		FlowFairness:    jainIndex(e.rateSamp.vals),
		StationFairness: jainIndex(e.stBits),
		QueueP50KB:      stats.Percentile(e.queueSamp.vals, 50),
		QueueP95KB:      stats.Percentile(e.queueSamp.vals, 95),
		QueueP99KB:      stats.Percentile(e.queueSamp.vals, 99),
	}
	if el := (e.now - e.start).Seconds(); el > 0 {
		r.DeliveredMbps = e.bits / el / 1e6
	}
	return r
}
