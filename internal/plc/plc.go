// Package plc composes the grid channel, the OFDM PHY and the 1901 MAC
// into stations and links — the unit the paper's experiments measure. It
// also models the measurement surface of §3.2: vendor management messages
// (the Open Powerline Toolkit's int6krate/ampstat) and the SoF sniffer.
package plc

import (
	"fmt"
	"math"
	"time"

	"repro/internal/grid"
	"repro/internal/mains"
	"repro/internal/plc/mac"
	"repro/internal/plc/phy"
)

// Station is one PLC modem plugged into a grid outlet.
type Station struct {
	ID   int
	Node grid.NodeID
	// NetworkID groups stations into AVLNs: only stations sharing a
	// network (same encryption key, same CCo) can exchange data (§3.1).
	NetworkID int
	// CCo marks the central coordinator of the station's network.
	CCo bool

	g     *grid.Grid
	plan  *phy.CarrierPlan
	seed  int64
	links map[int]*Link

	lastMM time.Duration
	mmUsed bool
}

// Config parameterises a testbed-wide PLC deployment.
type Config struct {
	Spec phy.Spec
	// Decimate trades carrier resolution for speed (see phy.PlanFor).
	Decimate int
	// Estimator overrides the default channel-estimation tuning.
	Estimator phy.EstimatorConfig
	Seed      int64
}

// DefaultConfig returns the standard HomePlug AV deployment.
func DefaultConfig() Config {
	return Config{Spec: phy.AV, Decimate: 4, Estimator: phy.DefaultEstimatorConfig(), Seed: 1}
}

// Deployment owns the stations of a testbed and builds links on demand.
type Deployment struct {
	Grid     *grid.Grid
	Cfg      Config
	Stations []*Station
	plan     *phy.CarrierPlan
}

// NewDeployment creates an empty deployment over a grid.
func NewDeployment(g *grid.Grid, cfg Config) *Deployment {
	if cfg.Decimate < 1 {
		cfg.Decimate = 1
	}
	return &Deployment{Grid: g, Cfg: cfg, plan: phy.PlanFor(cfg.Spec, cfg.Decimate)}
}

// AddStation plugs a new station into the given outlet.
func (d *Deployment) AddStation(node grid.NodeID, networkID int) *Station {
	s := &Station{
		ID:        len(d.Stations),
		Node:      node,
		NetworkID: networkID,
		g:         d.Grid,
		plan:      d.plan,
		seed:      d.Cfg.Seed,
		links:     make(map[int]*Link),
	}
	d.Stations = append(d.Stations, s)
	return s
}

// SetCCo statically pins the network coordinator, as the paper does with
// the Open Powerline Toolkit (§3.1).
func (d *Deployment) SetCCo(s *Station) {
	for _, o := range d.Stations {
		if o.NetworkID == s.NetworkID {
			o.CCo = false
		}
	}
	s.CCo = true
}

// Link returns the directed link from s to dst, creating it on first use.
// Stations on different logical networks cannot form links. All links of
// one deployment share the grid's channel plane (epoch stream, pair
// geometry, receiver noise sites), so later links are much cheaper to
// materialise than the first over a given pair.
func (d *Deployment) Link(s, dst *Station) (*Link, error) {
	if s.NetworkID != dst.NetworkID {
		return nil, fmt.Errorf("plc: stations %d and %d are on different networks", s.ID, dst.ID)
	}
	if s == dst {
		return nil, fmt.Errorf("plc: self-link on station %d", s.ID)
	}
	if l, ok := s.links[dst.ID]; ok {
		return l, nil
	}
	ch := d.Grid.NewLink(s.Node, dst.Node, d.plan.Freqs)
	l := &Link{
		Src: s, Dst: dst,
		Ch:  ch,
		Est: phy.NewEstimator(ch, d.plan, d.Cfg.Estimator),
	}
	s.links[dst.ID] = l
	return l, nil
}

// Pairs enumerates every ordered station pair that can form a link.
func (d *Deployment) Pairs() [][2]*Station {
	var out [][2]*Station
	for _, a := range d.Stations {
		for _, b := range d.Stations {
			if a != b && a.NetworkID == b.NetworkID {
				out = append(out, [2]*Station{a, b})
			}
		}
	}
	return out
}

// Link is a directed PLC link: the channel state plus the transmitter-side
// channel estimation for this direction.
type Link struct {
	Src, Dst *Station
	Ch       *grid.Link
	Est      *phy.Estimator

	// Sniffer, when set, receives the SoF delimiter of every simulated
	// frame (the capture mode of §3.2).
	Sniffer func(mac.SoF)
}

// AvgBLE reports the mean BLE over the six tone-map slots in Mb/s — the
// capacity estimate of §7.
func (l *Link) AvgBLE() float64 { return l.Est.Maps().AverageBLE() }

// PBerr reports the live PB error rate (the ampstat metric).
func (l *Link) PBerr(t time.Duration) float64 { return l.Est.CurrentPBerr(t) }

// Throughput reports the modelled saturated UDP goodput at time t in Mb/s.
func (l *Link) Throughput(t time.Duration) float64 {
	return mac.UDPThroughput(l.AvgBLE(), l.Est.CurrentPBerr(t))
}

// CableDistance reports the electrical distance between the endpoints.
func (l *Link) CableDistance() float64 { return l.Ch.CableDistance() }

// exchangeDuration returns the current full frame-exchange duration under
// saturation (frame airtime plus fixed overheads).
func (l *Link) exchangeDuration() time.Duration {
	slotTM := l.Est.Maps().ForSlot(0)
	syms := mac.MaxFrameSymbols
	if mac.MaxPBsPerFrame(slotTM.TotalBits, slotTM.FECRate) < 1 {
		syms = 8 // ROBO single-PB frames
	}
	us := float64(mac.FrameAirtime(syms))/float64(time.Microsecond) + mac.ExchangeOverheadMicros()
	return time.Duration(us * float64(time.Microsecond))
}

// Saturate drives the link with saturated traffic from t0 to t1, feeding
// the channel estimator exactly as real back-to-back frames would, and
// emitting SoF captures if a sniffer is attached. step bounds the
// modelling granularity (50-100 ms is plenty; frame batching within a step
// is exact for the estimator's sample counting).
func (l *Link) Saturate(t0, t1, step time.Duration) {
	if step <= 0 {
		step = 100 * time.Millisecond
	}
	for t := t0; t < t1; t += step {
		ex := l.exchangeDuration()
		frames := int(step / ex)
		if frames < 1 {
			frames = 1
		}
		tm := l.Est.Maps().ForSlot(mains.SlotAt(t))
		nPB := mac.MaxPBsPerFrame(tm.TotalBits, tm.FECRate)
		syms := mac.MaxFrameSymbols
		if nPB < 1 {
			nPB, syms = 1, 8
		}
		l.Est.OnTraffic(t, frames, nPB, syms)
		if l.Sniffer != nil {
			l.emitSoFs(t, t+step, ex)
		}
	}
}

// emitSoFs synthesises the SoF sequence of saturated traffic in [t0,t1).
func (l *Link) emitSoFs(t0, t1 time.Duration, exchange time.Duration) {
	for t := t0; t < t1; t += exchange {
		slot := mains.SlotAt(t)
		tm := l.Est.Maps().ForSlot(slot)
		nPB := mac.MaxPBsPerFrame(tm.TotalBits, tm.FECRate)
		if nPB < 1 {
			nPB = 1
		}
		l.Sniffer(mac.SoF{
			Timestamp: t,
			Src:       l.Src.ID, Dst: l.Dst.ID,
			TMI:  tm.TMI,
			BLEs: tm.BLE(),
			Slot: slot,
			Airtime: mac.FrameAirtime(mac.SymbolsForPBs(nPB,
				tm.TotalBits, tm.FECRate)),
			NPBs: nPB,
		})
	}
}

// Probe sends count probe packets of the given size back to back at time t
// (a single channel access each), driving channel estimation. Packet sizes
// below one PB still occupy a full PB on the wire (§7.2).
func (l *Link) Probe(t time.Duration, size, count int) {
	for i := 0; i < count; i++ {
		pbs := len(mac.Segment(0, size))
		tm := l.Est.Maps().ForSlot(mains.SlotAt(t))
		syms := mac.SymbolsForPBs(pbs, tm.TotalBits, tm.FECRate)
		if tm.TotalBits <= 0 {
			syms = 8
		}
		l.Est.OnTraffic(t, 1, pbs, syms)
	}
}

// UnicastResult is the outcome of one low-rate unicast test packet.
type UnicastResult struct {
	SentAt        time.Duration
	Transmissions int
}

// SendUnicast models the delivery of one packet of the given size at time
// t with SACK-based selective retransmission, returning the number of
// frame transmissions used (the per-packet sample of the U-ETX metric,
// §8.1). rngU is a uniform variate source in [0,1).
func (l *Link) SendUnicast(t time.Duration, size int, rngU func() float64) UnicastResult {
	pending := len(mac.Segment(0, size))
	pb := l.Est.OnTraffic(t, 1, pending, 3)
	tx := 0
	at := t
	for pending > 0 && tx < 100 {
		tx++
		failed := 0
		for i := 0; i < pending; i++ {
			if rngU() < pb {
				failed++
			}
		}
		if l.Sniffer != nil {
			tm := l.Est.Maps().ForSlot(mains.SlotAt(at))
			l.Sniffer(mac.SoF{
				Timestamp: at, Src: l.Src.ID, Dst: l.Dst.ID,
				TMI: tm.TMI, BLEs: tm.BLE(), Slot: mains.SlotAt(at),
				Airtime: mac.FrameAirtime(mac.SymbolsForPBs(pending, tm.TotalBits, tm.FECRate)),
				NPBs:    pending,
			})
		}
		pending = failed
		// Retransmissions follow within a few milliseconds — inside the
		// 10 ms window the paper uses to classify them (§8.1).
		at += 3 * time.Millisecond
	}
	return UnicastResult{SentAt: t, Transmissions: tx}
}

// BroadcastLossProbability models the chance a ROBO broadcast probe from
// src is missed by the receiver behind this link at time t. ROBO's
// quarter-rate QPSK decodes far below data-map SNRs, which is why the
// paper finds broadcast loss nearly quality-blind (§8.1).
func (l *Link) BroadcastLossProbability(t time.Duration) float64 {
	l.Ch.Advance(t)
	snr := l.Ch.MeanSNRdB(mains.SlotAt(t)) - l.Ch.ShiftDB(t)
	// ROBO decode threshold: ~0 dB mean SNR. Residual loss floor ~1e-4
	// (impulsive hits) matches the paper's Fig. 21 floor.
	const floor = 1e-4
	p := floor + 1/(1+math.Exp((snr-0.5)/1.2))
	if p > 1 {
		p = 1
	}
	return p
}

// MM is the management-message interface of a station (Table 2). The
// paper's fastest usable polling rate is one MM per 50 ms; faster queries
// return ErrMMTooFast.
const MMMinInterval = 50 * time.Millisecond

// ErrMMTooFast is returned when management messages are issued faster than
// the devices service them.
var ErrMMTooFast = fmt.Errorf("plc: management messages limited to one per %v", MMMinInterval)

// QueryBLE is the int6krate-style MM: the average BLE over tone-map slots
// for the link towards dst.
func (s *Station) QueryBLE(t time.Duration, l *Link) (float64, error) {
	if err := s.mmGate(t); err != nil {
		return 0, err
	}
	return l.AvgBLE(), nil
}

// QueryPBerr is the ampstat-style MM: the live PB error rate.
func (s *Station) QueryPBerr(t time.Duration, l *Link) (float64, error) {
	if err := s.mmGate(t); err != nil {
		return 0, err
	}
	return l.Est.CurrentPBerr(t), nil
}

// QuerySlotBLEs returns all six per-slot BLE values (tone-map detail MM).
func (s *Station) QuerySlotBLEs(t time.Duration, l *Link) ([mains.Slots]float64, error) {
	var out [mains.Slots]float64
	if err := s.mmGate(t); err != nil {
		return out, err
	}
	for i := 0; i < mains.Slots; i++ {
		out[i] = l.Est.Maps().ForSlot(i).BLE()
	}
	return out, nil
}

func (s *Station) mmGate(t time.Duration) error {
	if s.mmUsed && t-s.lastMM < MMMinInterval {
		return ErrMMTooFast
	}
	s.lastMM = t
	s.mmUsed = true
	return nil
}
