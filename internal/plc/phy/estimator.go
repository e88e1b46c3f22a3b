package phy

import (
	"math"
	"time"

	"repro/internal/mains"
)

// EstimatorConfig tunes the vendor channel-estimation procedure. IEEE 1901
// leaves this procedure unspecified (§2.2 "Vendor-Specific Mechanisms");
// the defaults reproduce the dynamics the paper measures on Intellon and
// Qualcomm chips: slow convergence from reset proportional to PB samples
// (Fig. 16), state retention across probing pauses (Fig. 17), conservative
// collapse under bursty errors (§6.2, Fig. 23) and recovery through
// improvement re-estimation.
type EstimatorConfig struct {
	// PBerrTarget is the engineered PB error rate of fresh tone maps.
	PBerrTarget float64
	// ErrorThreshold is the windowed PBerr that forces re-estimation.
	ErrorThreshold float64
	// ImproveFactor re-estimates when the achievable loading exceeds the
	// current one by this fraction.
	ImproveFactor float64
	// MarginDB is the engineering SNR margin of every tone map.
	MarginDB float64
	// ConvergenceK is the PB-sample count at which the estimator has
	// halved its initial conservatism.
	ConvergenceK float64
	// MaxPenaltyDB is the conservatism right after reset.
	MaxPenaltyDB float64
	// PBerrSlopeDB converts margin deficit (dB) into error-rate decades:
	// PBerr multiplies by 10 for every PBerrSlopeDB of deficit.
	PBerrSlopeDB float64
	// ErrorPenaltyDB is the extra conservatism applied per unit of
	// error-window excess when re-estimation is triggered by bursty
	// errors (the "very low BLE after bursty errors" behaviour of §6.2).
	ErrorPenaltyDB float64
	// MinInterval and ImproveMinInterval rate-limit re-estimations.
	MinInterval        time.Duration
	ImproveMinInterval time.Duration
	// WindowAlpha is the EWMA weight of new per-frame PBerr samples.
	WindowAlpha float64
}

// DefaultEstimatorConfig returns the calibrated defaults.
func DefaultEstimatorConfig() EstimatorConfig {
	return EstimatorConfig{
		PBerrTarget:        DefaultPBerrTarget,
		ErrorThreshold:     0.10,
		ImproveFactor:      0.15,
		MarginDB:           1.5,
		ConvergenceK:       1600,
		MaxPenaltyDB:       12,
		PBerrSlopeDB:       1.5,
		ErrorPenaltyDB:     10,
		MinInterval:        100 * time.Millisecond,
		ImproveMinInterval: 2 * time.Second,
		WindowAlpha:        0.25,
	}
}

// Estimator is one direction's channel-estimation state: it owns the
// link's tone maps and decides when to regenerate them. It must be driven
// with traffic via OnTraffic — per the standard, tone maps are only
// estimated when there is data to send (§7 of the paper).
type Estimator struct {
	ch   Channel
	plan *CarrierPlan
	cfg  EstimatorConfig

	// OnUpdate, if set, is invoked at every tone-map regeneration — the
	// events whose inter-arrival time is the α statistic of Fig. 11.
	OnUpdate func(t time.Duration)

	maps      SlotMaps
	estimated bool
	lastEst   time.Duration
	tmi       uint8

	samples   float64 // PB samples accumulated since reset
	windowPB  float64 // EWMA of per-frame PBerr samples
	windowSet bool
	ssEWMA    float64 // EWMA of "frame fits one symbol" indicator
	ssSet     bool

	// errPenalty is the sticky conservatism accumulated from bursty
	// errors. It ratchets up on error-triggered estimations and halves
	// on every clean one, giving the staircase recovery the paper
	// observes ("a few time-steps to converge back", §6.2).
	errPenalty float64

	// curves cache per-slot load curves keyed on the channel's epoch
	// counter, which advances on every mask transition the link applied
	// (the mask itself comes from the grid's shared timeline), so
	// invalidation follows channel-state changes exactly.
	curves     [mains.Slots]*LoadCurve
	curveEpoch uint64
	curveOK    [mains.Slots]bool

	// sustainShift caches, per slot, the maximum uniform noise shift at
	// which the channel still sustains the current tone map's loading.
	// It is invalidated on channel epoch changes and tone-map updates.
	sustain      [mains.Slots]float64
	sustainOK    [mains.Slots]bool
	sustainEpoch uint64

	// CurrentPBerr memo: snapshot paths ask for the same (t, epoch)
	// repeatedly per tick. The computation is deterministic given the
	// estimator state and the channel epoch, so the pair keys an exact
	// memo; any estimator mutation invalidates it (touch).
	pbMemoT     time.Duration
	pbMemoEpoch uint64
	pbMemoV     float64
	pbMemoOK    bool

	// stateVer counts estimator-state mutations; snapshot caches
	// downstream use it to decide whether a cached LinkState can still
	// be served (see al.Versioned).
	stateVer uint64

	updates int64
}

// touch records an estimator-state mutation: memoised outputs are stale
// and the externally visible state version moves.
func (e *Estimator) touch() {
	e.stateVer++
	e.pbMemoOK = false
}

// StateVersion reports a counter that changes whenever the estimator's
// observable state may have changed.
func (e *Estimator) StateVersion() uint64 { return e.stateVer }

// ShiftStable reports whether the estimator's outputs are independent of
// the channel's instantaneous noise shift: every slot's tone map is ROBO,
// robust or dead, so slotPBerr returns the engineered PBerrTarget whatever
// ShiftDB(t) is. At a fixed StateVersion and channel epoch such an
// estimator's observable state is a constant of t — the predicate that
// lets an incremental snapshot serve a cached LinkState without
// re-evaluating (see al.Stable). An unestimated link (fresh ROBO maps) is
// always shift-stable, which is what makes passive steady-state floors
// cheap: only probed links ever leave this state.
func (e *Estimator) ShiftStable() bool {
	for s := range e.maps.Maps {
		tm := &e.maps.Maps[s]
		if !(tm.TMI == 0 || tm.Robust || tm.TotalBits <= 0) {
			return false
		}
	}
	return true
}

// NewEstimator creates an estimator over a channel. The tone maps start as
// the ROBO default until traffic triggers the first estimation.
func NewEstimator(ch Channel, plan *CarrierPlan, cfg EstimatorConfig) *Estimator {
	e := &Estimator{ch: ch, plan: plan, cfg: cfg}
	e.Reset()
	return e
}

// Reset clears all estimation state, as the device-reset management message
// does in the paper's Fig. 16/18 experiments.
func (e *Estimator) Reset() {
	robo := NewROBOMap(e.plan)
	e.maps.Default = robo
	for s := range e.maps.Maps {
		e.maps.Maps[s] = robo
		e.maps.Maps[s].Slot = s
	}
	e.estimated = false
	e.samples = 0
	e.windowPB = 0
	e.windowSet = false
	e.ssEWMA = 0
	e.ssSet = false
	e.errPenalty = 0
	e.tmi = 0
	for s := range e.sustainOK {
		e.sustainOK[s] = false
	}
	e.touch()
}

// Maps exposes the current tone-map set.
func (e *Estimator) Maps() *SlotMaps { return &e.maps }

// Updates reports how many tone-map regenerations have occurred.
func (e *Estimator) Updates() int64 { return e.updates }

// penaltyDB is the convergence conservatism at the current sample count.
func (e *Estimator) penaltyDB() float64 {
	conv := e.samples / (e.samples + e.cfg.ConvergenceK)
	return e.cfg.MaxPenaltyDB * (1 - conv)
}

// curve returns the load curve of a slot at the current channel epoch.
func (e *Estimator) curve(slot int, epoch uint64) *LoadCurve {
	if epoch != e.curveEpoch {
		for s := range e.curveOK {
			e.curveOK[s] = false
			e.sustainOK[s] = false
		}
		e.curveEpoch = epoch
	}
	if !e.curveOK[slot] {
		e.curves[slot] = NewLoadCurve(e.ch.SNRBase(slot), e.plan.CarriersRepresented())
		e.curveOK[slot] = true
	}
	return e.curves[slot]
}

// oneSymbolBitsCap is the raw bit loading whose post-FEC payload equals one
// PB per symbol — the ceiling observable through single-symbol frames.
func oneSymbolBitsCap() float64 { return PBOnWire * 8 / FECRate }

// estimate regenerates all slot tone maps from the current channel state.
func (e *Estimator) estimate(t time.Duration, errorTriggered bool) {
	epoch := e.ch.Advance(t)
	shift := e.ch.ShiftDB(t)
	if errorTriggered {
		// Bursty errors the estimator cannot attribute make it sharply
		// conservative (observed on HPAV500 in §6.2; the mechanism of
		// the background-traffic sensitivity in Fig. 23). The penalty
		// ratchets: oscillating windows must not undo the collapse.
		excess := e.windowPB/e.cfg.ErrorThreshold - 1
		if excess > 3 {
			excess = 3
		}
		if p := e.cfg.ErrorPenaltyDB * excess; p > e.errPenalty {
			e.errPenalty = p
		}
	} else if e.errPenalty > 0 {
		e.errPenalty /= 2
		if e.errPenalty < 0.5 {
			e.errPenalty = 0
		}
	}
	pen := e.penaltyDB() + e.errPenalty
	capBits := 0.0
	if e.ssSet && e.ssEWMA > 0.9 {
		capBits = oneSymbolBitsCap()
	}
	e.tmi++
	if e.tmi == 0 { // 0 is reserved for ROBO
		e.tmi = 1
	}
	robo := NewROBOMap(e.plan)
	for s := 0; s < mains.Slots; s++ {
		lc := e.curve(s, epoch)
		b := lc.TotalBits(shift, e.cfg.MarginDB+pen)
		if capBits > 0 && b > capBits {
			b = capBits
		}
		tm := ToneMap{
			TMI:                e.tmi,
			Slot:               s,
			TotalBits:          b,
			FECRate:            FECRate,
			PBerrTarget:        e.cfg.PBerrTarget,
			ShiftAtEstimation:  shift,
			MarginAtEstimation: e.cfg.MarginDB + pen,
			Created:            t,
		}
		if b*FECRate < robo.TotalBits*robo.FECRate {
			// 1901 never loads a data map below the robust mode: fall
			// back to ROBO when the channel still decodes quarter-rate
			// QPSK (carriers near or above 0 dB), else the slot is dead.
			nCarriers := float64(lc.Len()) * e.plan.CarriersRepresented()
			if lc.ActiveCarriers(shift, -4) >= 0.25*nCarriers {
				tm.TotalBits = robo.TotalBits
				tm.FECRate = robo.FECRate
				tm.Robust = true
			} else {
				tm.TotalBits = 0
			}
		}
		e.maps.Maps[s] = tm
		e.sustainOK[s] = false
	}
	e.estimated = true
	e.lastEst = t
	e.updates++
	e.touch()
	if !errorTriggered {
		// A clean map restarts the error window at its engineered rate;
		// error-triggered maps keep the window so sustained bursts keep
		// the estimator conservative.
		e.windowPB = e.cfg.PBerrTarget
		e.windowSet = true
	}
	if e.OnUpdate != nil {
		e.OnUpdate(t)
	}
}

// sustainShiftFor returns the maximum uniform noise shift under which the
// channel still sustains the tone map of the given slot (at MarginDB).
func (e *Estimator) sustainShiftFor(slot int, epoch uint64) float64 {
	lc := e.curve(slot, epoch) // also syncs sustain invalidation on epoch change
	if e.sustainOK[slot] {
		return e.sustain[slot]
	}
	need := e.maps.Maps[slot].TotalBits
	var v float64
	switch {
	case need <= 0:
		v = math.Inf(1)
	case lc.TotalBits(-60, e.cfg.MarginDB) < need:
		v = -60 // unattainable even with a pristine floor
	default:
		lo, hi := -60.0, 60.0
		for i := 0; i < 24; i++ {
			mid := (lo + hi) / 2
			if lc.TotalBits(mid, e.cfg.MarginDB) >= need {
				lo = mid
			} else {
				hi = mid
			}
		}
		v = lo
	}
	e.sustain[slot] = v
	e.sustainOK[slot] = true
	return v
}

// slotPBerr models the live PB error rate of the current tone map in one
// slot: the margin left between the current noise shift and the largest
// shift the map tolerates decays exponentially into errors — every
// PBerrSlopeDB of deficit costs a decade of PBerr.
func (e *Estimator) slotPBerr(slot int, epoch uint64, shift float64) float64 {
	tm := &e.maps.Maps[slot]
	if tm.TMI == 0 || tm.Robust || tm.TotalBits <= 0 {
		// ROBO is engineered to be decodable on any usable channel.
		return e.cfg.PBerrTarget
	}
	marginNow := e.sustainShiftFor(slot, epoch) - shift
	if math.IsInf(marginNow, 1) {
		return e.cfg.PBerrTarget
	}
	// Reference margin the map was built with (conservatism beyond the
	// engineering margin).
	ref := tm.MarginAtEstimation - e.cfg.MarginDB
	pb := e.cfg.PBerrTarget * pow10((ref-marginNow)/e.cfg.PBerrSlopeDB)
	if pb > 0.9 {
		pb = 0.9
	}
	if pb < 1e-5 {
		pb = 1e-5
	}
	return pb
}

func pow10(x float64) float64 {
	const ln10 = 2.302585092994046
	return math.Exp(x * ln10)
}

// CurrentPBerr returns the live PB error rate averaged over the mains
// slots — the quantity the ampstat management message reports.
func (e *Estimator) CurrentPBerr(t time.Duration) float64 {
	// Advance is an O(1) interval lookup between transitions, so it is
	// cheap to key the memo on the channel epoch as well as the instant:
	// a hit is exact (the computation is deterministic given estimator
	// state, epoch and t; estimator mutations invalidate via touch).
	epoch := e.ch.Advance(t)
	if e.pbMemoOK && t == e.pbMemoT && epoch == e.pbMemoEpoch {
		return e.pbMemoV
	}
	shift := e.ch.ShiftDB(t)
	var s float64
	for slot := 0; slot < mains.Slots; slot++ {
		s += e.slotPBerr(slot, epoch, shift)
	}
	v := s / mains.Slots
	e.pbMemoT, e.pbMemoEpoch, e.pbMemoV, e.pbMemoOK = t, epoch, v, true
	return v
}

// OnTraffic drives the estimator with data-plane activity: frames frames of
// pbsPerFrame physical blocks each, occupying symsPerFrame OFDM symbols.
// It returns the modelled PB error rate experienced by this traffic.
func (e *Estimator) OnTraffic(t time.Duration, frames, pbsPerFrame, symsPerFrame int) float64 {
	if frames <= 0 {
		return 0
	}
	epoch := e.ch.Advance(t)
	shift := e.ch.ShiftDB(t)

	// Per-frame PBerr sample (channel-induced), weighted by its PB count:
	// the estimation statistics accumulate per physical block, so a short
	// retransmission frame moves the window far less than a full frame.
	var pb float64
	if e.estimated {
		pb = e.slotPBerr(mains.SlotAt(t), epoch, shift)
	} else {
		pb = e.cfg.PBerrTarget
	}
	e.ingestPBerrSample(pb, frames*pbsPerFrame)

	// Probe-size trap state: does the estimation traffic exercise more
	// than one symbol per frame?
	ss := 0.0
	if symsPerFrame <= 1 {
		ss = 1.0
	}
	if !e.ssSet {
		e.ssEWMA, e.ssSet = ss, true
	} else {
		e.ssEWMA += 0.1 * (ss - e.ssEWMA)
	}

	e.samples += float64(frames * pbsPerFrame)
	e.maybeUpdate(t, epoch, shift)
	return pb
}

// OnSACKSample injects an externally observed PB error fraction over nPBs
// physical blocks — the MAC uses this to model collision-induced errors
// that the estimator cannot distinguish from channel errors (§8.2, the
// capture effect).
func (e *Estimator) OnSACKSample(t time.Duration, pbErrFrac float64, nPBs int) {
	e.ingestPBerrSample(pbErrFrac, nPBs)
	epoch := e.ch.Advance(t)
	e.maybeUpdate(t, epoch, e.ch.ShiftDB(t))
}

// windowRefPBs is the PB count at which one sample carries the full
// configured EWMA weight.
const windowRefPBs = 3

func (e *Estimator) ingestPBerrSample(pb float64, nPBs int) {
	e.touch()
	if !e.windowSet {
		e.windowPB, e.windowSet = pb, true
		return
	}
	alpha := e.cfg.WindowAlpha * float64(nPBs) / windowRefPBs
	if alpha > 0.5 {
		alpha = 0.5
	}
	e.windowPB += alpha * (pb - e.windowPB)
}

// WindowPBerr exposes the EWMA error window (used by tests and the MAC).
func (e *Estimator) WindowPBerr() float64 { return e.windowPB }

func (e *Estimator) maybeUpdate(t time.Duration, epoch uint64, shift float64) {
	if !e.estimated {
		e.estimate(t, false)
		return
	}
	age := t - e.lastEst
	if age >= ToneMapExpiry {
		e.estimate(t, false)
		return
	}
	if age < e.cfg.MinInterval {
		return
	}
	if e.windowPB > e.cfg.ErrorThreshold {
		e.estimate(t, true)
		return
	}
	if age >= e.cfg.ImproveMinInterval && e.windowPB < e.cfg.ErrorThreshold/2 {
		// Improvement trigger: channel sustains clearly more than the
		// current loading (post-impulse recovery, convergence ramp).
		pen := e.penaltyDB()
		slot := mains.SlotAt(t)
		cur := e.maps.Maps[slot].TotalBits
		if cur <= 0 {
			cur = 1
		}
		if e.curve(slot, epoch).TotalBits(shift, e.cfg.MarginDB+pen) > cur*(1+e.cfg.ImproveFactor) {
			e.estimate(t, false)
		}
	}
}
