// Package grid models the electrical network that PLC signals traverse: the
// cable graph of a building, its distribution boards, and the appliances
// plugged into it.
//
// The model follows the paper's own explanation of PLC behaviour (§5, §6):
// the two components of the channel are attenuation — dominated by
// multipath reflections at impedance mismatches created by appliances — and
// noise — injected by appliances, periodic with the mains cycle, fluctuating
// at second scale, and restructured when devices switch. Both are modelled
// here; the OFDM PHY in internal/plc/phy consumes the per-carrier SNR this
// package produces.
package grid

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detrand"
)

// NodeID identifies an outlet (or junction) of the electrical network.
type NodeID int

// Node is one point of the cable graph. Position is on the floor plan
// (metres) and is shared with the WiFi path-loss model so both media see
// the same geometry.
type Node struct {
	ID    NodeID
	X, Y  float64
	Board int // distribution board feeding this outlet (0 or 1 in the testbed)

	// Gamma is the node's structural reflection coefficient: every
	// outlet/junction carries branch stubs that mismatch the line even
	// with nothing plugged in. The paper's §5 control experiment shows
	// attenuation is dominated by this multipath, not by cable loss —
	// a bare 70 m cable costs at most ~2 Mb/s.
	Gamma float64
}

// Cable is an undirected cable segment between two nodes.
type Cable struct {
	A, B   NodeID
	Length float64 // metres
}

// Grid is the full electrical network.
type Grid struct {
	Nodes      []Node
	Cables     []Cable
	Appliances []*Appliance

	// Z0 is the characteristic impedance of the mains cable (ohms).
	Z0 float64

	// BoardCrossingPenaltyDB is the extra attenuation for links whose
	// endpoints hang off different distribution boards (breaker panels
	// and the basement interconnection; §3.1 of the paper). The basement
	// cable run itself is modelled as an ordinary cable edge by the
	// testbed builder.
	BoardCrossingPenaltyDB float64

	adj map[NodeID][]edge

	// routeMu guards the routing caches below. They were historically
	// filled during single-threaded construction (NewLink), but channel
	// geometry now materialises lazily on first SNR read, which may
	// happen from concurrently driven links.
	routeMu  sync.Mutex
	distRows [][]float64 // guarded by routeMu: per-source Dijkstra rows, indexed by NodeID
	tapLoss  []float64   // guarded by routeMu: per-node structural tap loss (dB)
	tapRows  [][]float64 // guarded by routeMu: per-source tap-loss sums, indexed by NodeID

	// planes are the shared channel engines, one per carrier plan in
	// use (see Plane). Links created over the same plan share all
	// pair- and receiver-shaped channel state through them.
	planes []*Plane

	// Mask-transition timeline (see events.go): the appliance mask is a
	// pure function of t, so its transitions are enumerated once per
	// horizon chunk and every mask query between two transitions is a
	// binary search instead of a schedule walk. tlGen ties per-link
	// interval caches to the current appliance population.
	tlMu    sync.Mutex
	tlGen   atomic.Uint64   // bumped under tlMu; read lock-free by Link.Advance
	tlValid bool            // guarded by tlMu
	tlFrom  time.Duration   // guarded by tlMu
	tlTo    time.Duration   // guarded by tlMu
	tlMask0 uint64          // guarded by tlMu
	tlTimes []time.Duration // guarded by tlMu
	tlMasks []uint64        // guarded by tlMu

	seed int64
}

type edge struct {
	to NodeID
	w  float64
}

// Config bundles the tunable physical constants of the grid. Defaults are
// calibrated so the synthetic testbed matches the paper's coarse anchors
// (good links < 30 m, mixed quality 30-100 m, no cross-board connectivity).
type Config struct {
	Z0                     float64
	BoardCrossingPenaltyDB float64
	Seed                   int64
}

// DefaultConfig returns the calibrated defaults.
func DefaultConfig() Config {
	return Config{
		Z0:                     90,
		BoardCrossingPenaltyDB: 45,
		Seed:                   1,
	}
}

// New creates an empty grid with the given configuration.
func New(cfg Config) *Grid {
	return &Grid{
		Z0:                     cfg.Z0,
		BoardCrossingPenaltyDB: cfg.BoardCrossingPenaltyDB,
		adj:                    make(map[NodeID][]edge),
		seed:                   cfg.Seed,
	}
}

// AddNode appends a node and returns its ID.
func (g *Grid) AddNode(x, y float64, board int) NodeID {
	id := NodeID(len(g.Nodes))
	gamma := 0.15 + 0.55*detrand.Uniform(uint64(g.seed), uint64(id), 0x6a)
	g.Nodes = append(g.Nodes, Node{ID: id, X: x, Y: y, Board: board, Gamma: gamma})
	g.invalidateRouting() // cached rows have the old node count
	for _, p := range g.planes {
		p.invalidateGeometry()
	}
	return id
}

// AddCable connects two nodes with a cable of the given length.
func (g *Grid) AddCable(a, b NodeID, length float64) {
	if length <= 0 {
		panic(fmt.Sprintf("grid: non-positive cable length %v", length))
	}
	g.Cables = append(g.Cables, Cable{A: a, B: b, Length: length})
	g.adj[a] = append(g.adj[a], edge{to: b, w: length})
	g.adj[b] = append(g.adj[b], edge{to: a, w: length})
	g.invalidateRouting()
	for _, p := range g.planes {
		p.invalidateGeometry()
	}
}

// invalidateRouting drops the shortest-path and tap-loss caches after the
// cable graph changes.
func (g *Grid) invalidateRouting() {
	g.routeMu.Lock()
	g.distRows = nil
	g.tapLoss = nil
	g.tapRows = nil
	g.routeMu.Unlock()
}

// MaxAppliances bounds the appliance population of one grid: the
// switching state is a uint64 bitmask (StateMask) and channel gains are
// cached per mask, so scenario builders must budget within it.
const MaxAppliances = 64

// Plug attaches an appliance of the given class to a node.
func (g *Grid) Plug(class *ApplianceClass, node NodeID) *Appliance {
	if len(g.Appliances) >= MaxAppliances {
		panic(fmt.Sprintf("grid: more than %d appliances (state mask is a uint64)", MaxAppliances))
	}
	a := &Appliance{
		Class: class,
		Node:  node,
		id:    detrand.Hash64(uint64(g.seed), uint64(node), uint64(len(g.Appliances)), 0xa11),
		seed:  g.seed,
	}
	g.Appliances = append(g.Appliances, a)
	g.invalidateTimeline() // the mask is a function of the appliance set
	for _, p := range g.planes {
		p.invalidateSchedule()
	}
	return a
}

// Dist returns the shortest cable distance between two nodes in metres.
// It returns +Inf for electrically disconnected pairs.
func (g *Grid) Dist(a, b NodeID) float64 {
	return g.rawDist(a, b)
}

// rawDist is the pure graph shortest path.
func (g *Grid) rawDist(a, b NodeID) float64 {
	g.routeMu.Lock()
	d := g.distRowLocked(a)[b]
	g.routeMu.Unlock()
	return d
}

// distRowLocked returns the cached Dijkstra row of one source node,
// computing it on first use. Caller holds routeMu.
func (g *Grid) distRowLocked(a NodeID) []float64 {
	if len(g.distRows) < len(g.Nodes) {
		rows := make([][]float64, len(g.Nodes))
		copy(rows, g.distRows)
		g.distRows = rows
	}
	if g.distRows[a] == nil {
		g.distRows[a] = g.dijkstra(a)
	}
	return g.distRows[a]
}

func (g *Grid) dijkstra(src NodeID) []float64 {
	n := len(g.Nodes)
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	visited := make([]bool, n)
	// n is small (tens of outlets); a simple O(n²) scan is clearest.
	for {
		best := -1
		bd := math.Inf(1)
		for i := 0; i < n; i++ {
			if !visited[i] && dist[i] < bd {
				best, bd = i, dist[i]
			}
		}
		if best < 0 {
			return dist
		}
		visited[best] = true
		for _, e := range g.adj[NodeID(best)] {
			if nd := bd + e.w; nd < dist[e.to] {
				dist[e.to] = nd
			}
		}
	}
}

// StateMask returns the on/off state of all appliances at t as a bitmask
// (bit i = appliance i on). Channel gains are cached per mask.
func (g *Grid) StateMask(t time.Duration) uint64 {
	var m uint64
	for i, a := range g.Appliances {
		if a.On(t) {
			m |= 1 << uint(i)
		}
	}
	return m
}

// EuclidDist returns the straight-line (floor-plan) distance between two
// nodes in metres. The WiFi model uses this; PLC uses cable Dist.
func (g *Grid) EuclidDist(a, b NodeID) float64 {
	na, nb := g.Nodes[a], g.Nodes[b]
	dx, dy := na.X-nb.X, na.Y-nb.Y
	return math.Hypot(dx, dy)
}

// appliancesByDistance returns appliance indices sorted by cable distance
// from the given node.
func (g *Grid) appliancesByDistance(n NodeID) []int {
	idx := make([]int, len(g.Appliances))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		return g.rawDist(n, g.Appliances[idx[i]].Node) < g.rawDist(n, g.Appliances[idx[j]].Node)
	})
	return idx
}

// nodeTapLossDB is the through-loss (dB) a signal pays passing the node's
// structural branch stubs.
func nodeTapLossDB(n *Node) float64 {
	f := 1 - 0.6*n.Gamma
	return -20 * math.Log10(f)
}

// onPathNodes returns the intermediate nodes lying on the shortest cable
// route between a and b (excluding the endpoints themselves).
func (g *Grid) onPathNodes(a, b NodeID) []NodeID {
	d0 := g.rawDist(a, b)
	if math.IsInf(d0, 1) {
		return nil
	}
	var out []NodeID
	for i := range g.Nodes {
		n := NodeID(i)
		if n == a || n == b {
			continue
		}
		da, db := g.rawDist(a, n), g.rawDist(n, b)
		if math.IsInf(da, 1) || math.IsInf(db, 1) {
			continue
		}
		if da+db <= d0+0.5 {
			out = append(out, n)
		}
	}
	return out
}

// tapSumDB returns the total structural tap loss (dB) along the route
// a → b, excluding both endpoints. Rows are cached per source: the
// channel geometry queries this for every (endpoint, appliance) and
// (endpoint, junction) combination, so the uncached version dominated
// link materialisation.
func (g *Grid) tapSumDB(a, b NodeID) float64 {
	g.routeMu.Lock()
	s := g.tapRowLocked(a)[b]
	g.routeMu.Unlock()
	return s
}

// tapRowLocked returns the cached tap-loss sums from one source node to
// every destination. The per-destination accumulation visits nodes in
// index order, exactly like the historical onPathNodes walk, so the sums
// are bit-identical to the uncached computation. Caller holds routeMu.
func (g *Grid) tapRowLocked(a NodeID) []float64 {
	n := len(g.Nodes)
	if len(g.tapRows) < n {
		rows := make([][]float64, n)
		copy(rows, g.tapRows)
		g.tapRows = rows
	}
	if g.tapRows[a] != nil {
		return g.tapRows[a]
	}
	if g.tapLoss == nil {
		g.tapLoss = make([]float64, n)
		for i := range g.Nodes {
			g.tapLoss[i] = nodeTapLossDB(&g.Nodes[i])
		}
	}
	da := g.distRowLocked(a)
	row := make([]float64, n)
	for b := 0; b < n; b++ {
		d0 := da[b]
		if math.IsInf(d0, 1) {
			continue
		}
		var sum float64
		for i := 0; i < n; i++ {
			if NodeID(i) == a || i == b {
				continue
			}
			dai := da[i]
			dib := g.distRowLocked(NodeID(i))[b]
			if math.IsInf(dai, 1) || math.IsInf(dib, 1) {
				continue
			}
			if dai+dib <= d0+0.5 {
				sum += g.tapLoss[i]
			}
		}
		row[b] = sum
	}
	g.tapRows[a] = row
	return row
}
