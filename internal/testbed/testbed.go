// Package testbed assembles measurement environments. Historically it
// built exactly the paper's floor (§3.1, Fig. 2): 19 stations on one
// office floor of 70 m × 40 m, fed by two distribution boards joined only
// in the basement, forming two logical PLC networks (CCo at stations 11
// and 15), with WiFi sharing the same geometry. That floor is now just
// the "paper" preset of internal/scenario: Build turns any
// scenario.Blueprint — presets or procedurally generated — into a live
// deployment, and New resolves Options.Scenario through the scenario
// registry. The package also provides the isolated-cable rig used for
// the controlled attenuation experiments of §5.
package testbed

import (
	"fmt"
	"sort"

	"repro/internal/al"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/plc"
	"repro/internal/plc/phy"
	"repro/internal/scenario"
	"repro/internal/wifi"
)

// CCoA and CCoB are the paper floor's statically pinned coordinators
// (§3.1).
const (
	CCoA = 11
	CCoB = 15
)

// NumStations is the paper floor's station count. Other scenarios have
// their own; len(Testbed.Stations) is the assembled value.
const NumStations = 19

// Testbed is an assembled measurement floor.
type Testbed struct {
	Grid     *grid.Grid
	Dep      *plc.Deployment
	Stations []*plc.Station // indexed by station number

	seed      int64
	bp        *scenario.Blueprint
	wifiLinks map[[2]int]*wifi.Link

	// Assembly inputs, retained so Reset can rebuild the mutable PLC
	// deployment over the immutable grid.
	opts         Options
	pcfg         plc.Config
	stationNodes []grid.NodeID
	stationNets  []int
	ccoStations  []int
}

// Options tunes the build.
type Options struct {
	Spec phy.Spec
	// Decimate reduces carrier resolution for speed (default 4 keeps
	// ~230 modelled carriers for AV).
	Decimate int
	Seed     int64
	// Scenario selects the deployment by registry name or gen: spec
	// (see internal/scenario); empty means the paper floor.
	Scenario string
	// Estimator overrides the channel-estimation tuning; zero value
	// means defaults.
	Estimator *phy.EstimatorConfig
}

// DefaultOptions is the recommended laptop-scale configuration (HomePlug
// AV, decimate 8, seed 1, the paper floor) — the single source the
// facade and the command flags both start from.
func DefaultOptions() Options {
	return Options{Spec: phy.AV, Decimate: 8, Seed: 1, Scenario: scenario.DefaultName}
}

// New assembles the scenario selected by opts.Scenario (the Fig. 2
// paper floor when empty). Unknown scenario names panic — validate user
// input with scenario.Parse first; Build reports blueprint errors for
// programmatic construction.
func New(opts Options) *Testbed {
	bp, err := scenario.Parse(opts.Scenario)
	if err != nil {
		panic(fmt.Sprintf("testbed: %v", err))
	}
	tb, err := Build(bp, opts)
	if err != nil {
		panic(fmt.Sprintf("testbed: %v", err))
	}
	return tb
}

// Build assembles a blueprint into a live deployment: the cable graph
// with its boards, spines, drops and appliance population; one PLC
// station per blueprint station with the CCos pinned; and the WiFi link
// cache over the same geometry. Construction order is deterministic, so
// equal (blueprint, options) pairs reproduce the floor bit for bit.
func Build(bp *scenario.Blueprint, opts Options) (*Testbed, error) {
	if err := bp.Validate(); err != nil {
		return nil, err
	}
	if opts.Decimate < 1 {
		opts.Decimate = 4
	}
	opts.Scenario = bp.Name
	gcfg := grid.DefaultConfig()
	gcfg.Seed = opts.Seed
	g := grid.New(gcfg)

	// Distribution boards, then their basement interconnections.
	boards := make([]grid.NodeID, len(bp.Boards))
	for i, b := range bp.Boards {
		boards[i] = g.AddNode(b.X, b.Y, i)
	}
	for _, ic := range bp.Interconnects {
		g.AddCable(boards[ic.A], boards[ic.B], ic.Length)
	}

	// Corridor spines: junction-box chains fed from their board. Cable
	// runs are longer than straight-line distance (wiring factor),
	// giving the 20-100+ m cable-distance spread of Fig. 7.
	spines := make([][]grid.NodeID, len(bp.Spines))
	for i, sp := range bp.Spines {
		root := boards[sp.Board]
		nodes := []grid.NodeID{root}
		prev := root
		px, py := g.Nodes[root].X, g.Nodes[root].Y
		for _, x := range sp.Xs {
			n := g.AddNode(x, sp.Y, sp.Board)
			g.AddCable(prev, n, wiringLen(px, py, x, sp.Y))
			nodes = append(nodes, n)
			prev, px, py = n, x, sp.Y
		}
		spines[i] = nodes
	}
	for _, ct := range bp.CrossTies {
		g.AddCable(spines[ct.SpineA][ct.NodeA], spines[ct.SpineB][ct.NodeB], ct.Length)
	}

	tb := &Testbed{Grid: g, seed: opts.Seed, bp: bp}

	// Station outlets drop from the nearest spine junction of their
	// board's wing.
	stationNodes := make([]grid.NodeID, len(bp.Stations))
	for s, st := range bp.Stations {
		var best grid.NodeID
		bestD := 1e18
		for si, sp := range bp.Spines {
			if sp.Board != st.Board {
				continue
			}
			for _, n := range spines[si][1:] { // skip the board itself
				d := wiringLen(g.Nodes[n].X, g.Nodes[n].Y, st.X, st.Y)
				if d < bestD {
					best, bestD = n, d
				}
			}
		}
		outlet := g.AddNode(st.X, st.Y, st.Board)
		g.AddCable(best, outlet, bestD+2) // drop plus in-wall slack
		stationNodes[s] = outlet
	}

	// The appliance population whose schedules drive the §6 temporal
	// variation: station-attached devices first, then the shared
	// equipment on the spines.
	for s, st := range bp.Stations {
		for _, cls := range st.Appliances {
			g.Plug(cls, stationNodes[s])
		}
	}
	for _, sh := range bp.Shared {
		g.Plug(sh.Class, spines[sh.Spine][sh.Node])
	}

	pcfg := plc.DefaultConfig()
	pcfg.Spec = opts.Spec
	pcfg.Decimate = opts.Decimate
	pcfg.Seed = opts.Seed
	if opts.Estimator != nil {
		pcfg.Estimator = *opts.Estimator
	}
	tb.opts = opts
	tb.pcfg = pcfg
	tb.stationNodes = stationNodes
	for _, st := range bp.Stations {
		tb.stationNets = append(tb.stationNets, st.Network)
	}
	tb.ccoStations = append(tb.ccoStations, bp.CCos...)
	tb.assemble()
	return tb, nil
}

// assemble (re)builds the PLC deployment and WiFi link cache from the
// retained grid and assembly inputs.
func (tb *Testbed) assemble() {
	dep := plc.NewDeployment(tb.Grid, tb.pcfg)
	for i, node := range tb.stationNodes {
		dep.AddStation(node, tb.stationNets[i])
	}
	for _, s := range tb.ccoStations {
		dep.SetCCo(dep.Stations[s])
	}
	tb.Dep = dep
	tb.Stations = dep.Stations
	tb.wifiLinks = make(map[[2]int]*wifi.Link)
}

// Close releases the floor: the deployment, the WiFi link cache and the
// grid reference are dropped so a long-lived holder (a hosted floor
// runtime, a factory pool being torn down) returns the floor's memory
// without waiting for its own death. Close is idempotent; the testbed
// must not be used afterwards.
func (tb *Testbed) Close() {
	tb.Grid = nil
	tb.Dep = nil
	tb.Stations = nil
	tb.wifiLinks = nil
	tb.stationNodes = nil
	tb.stationNets = nil
	tb.ccoStations = nil
	tb.bp = nil
}

// Closed reports whether Close released the testbed.
func (tb *Testbed) Closed() bool { return tb.Grid == nil }

// Reset discards every piece of mutable measurement state — PLC links with
// their channel and estimator state, sniffer hooks, management-message
// throttles, and WiFi rate-adaptation caches — by rebuilding the
// deployment over the retained grid. The grid itself is immutable after
// construction apart from pure shortest-path memos, so a reset testbed
// reproduces a freshly built one bit for bit while skipping the expensive
// grid/calendar construction.
func (tb *Testbed) Reset() { tb.assemble() }

// Opts reports the options the testbed was built with.
func (tb *Testbed) Opts() Options { return tb.opts }

// wiringLen converts a straight run into an in-wall cable length
// (manhattan routing with slack).
func wiringLen(x1, y1, x2, y2 float64) float64 {
	dx, dy := x2-x1, y2-y1
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return (dx + dy) * 1.15
}

// PLCLink returns the directed PLC link between two station numbers.
func (tb *Testbed) PLCLink(src, dst int) (*plc.Link, error) {
	if src < 0 || src >= len(tb.Stations) || dst < 0 || dst >= len(tb.Stations) {
		return nil, fmt.Errorf("testbed: station out of range (%d, %d)", src, dst)
	}
	return tb.Dep.Link(tb.Stations[src], tb.Stations[dst])
}

// ALLink returns the IEEE 1905-style abstraction-layer view of one
// directed link — the medium-agnostic surface schedulers and routers
// consume.
func (tb *Testbed) ALLink(m core.Medium, src, dst int) (al.Link, error) {
	if src < 0 || src >= len(tb.Stations) || dst < 0 || dst >= len(tb.Stations) || src == dst {
		return nil, fmt.Errorf("testbed: bad station pair (%d, %d)", src, dst)
	}
	switch m {
	case core.PLC:
		l, err := tb.PLCLink(src, dst)
		if err != nil {
			return nil, err
		}
		return al.NewPLC(l), nil
	case core.WiFi:
		return al.NewWiFi(src, dst, tb.WiFiLink(src, dst)), nil
	}
	return nil, fmt.Errorf("testbed: unknown medium %v", m)
}

// Topology returns the abstraction-layer view of the whole floor: one PLC
// link per same-network ordered station pair followed by one WiFi link
// per ordered pair (WiFi has no network partition), in deterministic
// order — consumers inherit seed-reproducibility.
func (tb *Testbed) Topology() (*al.Topology, error) {
	topo := al.NewTopology()
	n := len(tb.Stations)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b || tb.stationNets[a] != tb.stationNets[b] {
				continue
			}
			l, err := tb.PLCLink(a, b)
			if err != nil {
				return nil, err
			}
			topo.Add(al.NewPLC(l))
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			topo.Add(al.NewWiFi(a, b, tb.WiFiLink(a, b)))
		}
	}
	return topo, nil
}

// WiFiLink returns the directed WiFi link between two station numbers.
func (tb *Testbed) WiFiLink(src, dst int) *wifi.Link {
	key := [2]int{src, dst}
	if l, ok := tb.wifiLinks[key]; ok {
		return l
	}
	l := wifi.NewLink(tb.Grid, tb.Stations[src].Node, tb.Stations[dst].Node, tb.seed)
	tb.wifiLinks[key] = l
	return l
}

// SameNetworkPairs enumerates the ordered station pairs that can form
// PLC links (both directions; the scenario's network partition).
func (tb *Testbed) SameNetworkPairs() [][2]int {
	n := len(tb.Stations)
	var out [][2]int
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b && tb.stationNets[a] == tb.stationNets[b] {
				out = append(out, [2]int{a, b})
			}
		}
	}
	return out
}

// NewIsolatedRig builds the §5 control experiment with default carrier
// resolution: two stations joined by a bare cable of the given length,
// optionally with appliances plugged at given fractions along it.
func NewIsolatedRig(lengthM float64, seed int64, spec phy.Spec, appliances map[float64]*grid.ApplianceClass) *Testbed {
	return NewIsolatedRigOpts(lengthM, Options{Spec: spec, Seed: seed}, appliances)
}

// NewIsolatedRigOpts builds the isolated rig honouring the full option
// set (notably Decimate; Scenario is ignored — the rig is its own
// geometry). Appliance taps at fraction <= 0 or >= 1 merge onto the end
// stations' outlets rather than creating degenerate zero-length cable
// segments, and taps sharing a fraction share one junction.
func NewIsolatedRigOpts(lengthM float64, opts Options, appliances map[float64]*grid.ApplianceClass) *Testbed {
	if opts.Decimate < 1 {
		opts.Decimate = plc.DefaultConfig().Decimate
	}
	gcfg := grid.DefaultConfig()
	gcfg.Seed = opts.Seed
	g := grid.New(gcfg)
	a := g.AddNode(0, 0, 0)
	b := g.AddNode(lengthM, 0, 0)

	// Build the cable with junctions at the appliance positions.
	type tap struct {
		frac  float64
		class *grid.ApplianceClass
	}
	var taps []tap
	for f, c := range appliances {
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		taps = append(taps, tap{f, c})
	}
	// Insertion order must be deterministic: order by position, then by
	// class name for taps sharing a fraction (map iteration order must
	// not leak into node identities).
	sort.Slice(taps, func(i, j int) bool {
		if taps[i].frac != taps[j].frac {
			return taps[i].frac < taps[j].frac
		}
		return taps[i].class.Name < taps[j].class.Name
	})
	prev := a
	prevPos := 0.0
	for _, tp := range taps {
		pos := tp.frac * lengthM
		var n grid.NodeID
		switch {
		case pos <= prevPos:
			n = prev // merge onto the previous junction (or station a)
		case pos >= lengthM:
			n = b // tap at the far end: plug at station b's outlet
		default:
			n = g.AddNode(pos, 0, 0)
			g.AddCable(prev, n, pos-prevPos)
			prev, prevPos = n, pos
		}
		g.Plug(tp.class, n)
	}
	if lengthM > prevPos {
		g.AddCable(prev, b, lengthM-prevPos)
	}

	pcfg := plc.DefaultConfig()
	pcfg.Spec = opts.Spec
	pcfg.Decimate = opts.Decimate
	pcfg.Seed = opts.Seed
	if opts.Estimator != nil {
		pcfg.Estimator = *opts.Estimator
	}
	tb := &Testbed{
		Grid: g, seed: opts.Seed,
		opts:         Options{Spec: opts.Spec, Decimate: pcfg.Decimate, Seed: opts.Seed, Estimator: opts.Estimator},
		pcfg:         pcfg,
		stationNodes: []grid.NodeID{a, b},
		stationNets:  []int{0, 0},
		ccoStations:  []int{0},
	}
	tb.assemble()
	return tb
}
