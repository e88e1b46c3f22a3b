package grid

import (
	"math"
	"math/bits"
	"math/cmplx"
	"time"

	"repro/internal/detrand"
	"repro/internal/mains"
)

// Physical constants of the propagation model. The transfer function
// follows the standard multipath PLC model (Zimmermann & Dostert):
//
//	H(f) = Σ_i g_i · A(f, d_i) · exp(-j·2πf·d_i/v)
//
// with one path per structural tap (outlet/junction branch stubs) and per
// appliance, and A(f,d) combining a *small* cable loss with the through
// losses of the taps along the route. The paper's §5 control experiment
// pins this decomposition: a bare 70 m cable costs at most ~2 Mb/s, so
// essentially all attenuation comes from the multipath created by taps and
// appliances. Constants are calibrated so that clean short links reach
// near-maximum rate and 30-100 m office links span the good-to-dead range
// of Fig. 7 depending on the appliance population.
const (
	// TxPSDdBmHz is the HomePlug AV transmit power spectral density.
	TxPSDdBmHz = -55.0

	// attA0 and attA1 parameterise bare-cable attenuation per metre:
	// attDB(f,d) = 8.686·(attA0 + attA1·f)·d. Deliberately small.
	attA0 = 0.004  // 1/m
	attA1 = 0.8e-9 // s/m

	// propVelocity is the propagation speed on mains cable (m/s).
	propVelocity = 1.5e8

	// directGain is the amplitude coupling of the direct path.
	directGain = 0.85

	// applianceTapLossFactor scales how much an on-path appliance eats
	// from the direct path: factor = 1 - applianceTapLossFactor·|Γ|.
	applianceTapLossFactor = 0.28

	// bounceGain scales first-order reflection paths.
	bounceGain = 0.5

	// echoGain scales the second-order echo of each reflection.
	echoGain = 0.45

	// stubExtraM and echoExtraM are the extra path lengths of a
	// reflection and of its echo (outlet drop, round trip).
	stubExtraM = 3.0
	echoExtraM = 8.0

	// couplerLossMaxDB bounds the per-node, per-direction coupling loss
	// modelling outlet/AFE quality spread.
	couplerLossMaxDB = 6.0
)

// attDB returns the bare-cable attenuation in dB (power) for frequency f
// (Hz) over d metres.
func attDB(f, d float64) float64 {
	return 8.686 * (attA0 + attA1*f) * d
}

// Link is the PLC channel between two outlets, maintained incrementally as
// appliances switch. It is the grid-side state behind one directed
// (transmitter, receiver) pair; the OFDM PHY reads per-carrier SNR from it.
//
// A Link owns only the state that is genuinely directional: the direct
// and structural-reflection phasors (whose distance inputs differ per
// direction at the bit level), the coupler losses, and the mutable
// mask-dependent channel (reflection sum, tap product, noise floor,
// gain). Everything pair- or receiver-shaped — appliance reflection
// geometry, attenuated noise vectors, per-appliance constants, the
// epoch/mask timeline, the flicker/impulse factors — lives in the grid's
// shared Plane. The mutable arrays are flat [slot × carrier] slabs.
type Link struct {
	g      *Grid
	p      *Plane
	tx, rx NodeID
	freqs  []float64

	pg   *pairCore // shared appliance reflection geometry
	site *rxSite   // shared receiver-side noise geometry

	// Channel state at the current epoch (appliance mask). The mask
	// comes from the grid's mask-transition timeline; the epoch counter
	// is per-link monotonic and advances only on transitions that touch
	// this link's electrically reachable appliance set (see Advance).
	mask    uint64
	epoch   uint64
	started bool

	// Interval fast path: [ivStart, ivEnd) is the transition interval
	// the last Advance landed in, ivGen the timeline generation it came
	// from. While t stays inside a valid interval, Advance is a pair of
	// comparisons — no lock, no schedule walk, no map.
	ivStart time.Duration
	ivEnd   time.Duration
	ivGen   uint64

	// Lazy channel materialisation: the per-carrier arrays below are
	// built on the first SNR read, not at construction or first
	// Advance. Until then, Advance records the masks it applied
	// (pending) so materialisation can replay the exact toggle sequence
	// the eager path would have executed — the values are bit-identical
	// because intermediate gains are never observed (see ensureChannel).
	matzd     bool
	geomBuilt bool
	firstMask uint64
	pending   []uint64

	d0      float64      // direct path cable distance
	direct  []complex128 // direct path phasor incl. structural tap losses
	tapProd float64      // product of (1 - k·Γ) over on-path *appliances*
	refl    []complex128 // static reflections from structural taps
	hRefl   []complex128 // appliance reflection sum (state-dependent)
	fixedDB float64      // cross-board penalty + coupler losses

	noiseLin []float64 // flat [slot × carrier] current-mask noise (linear)
	gainDB   []float64 // 20·log10|H| + fixedDB at current mask
	snrBase  []float64 // flat [slot × carrier] SNR at current mask
	snrValid [mains.Slots]bool
}

// maxPendingMasks bounds the recorded mask history of an unmaterialised
// link; past it the link materialises eagerly and continues with the
// ordinary incremental updates (still exact — the replay applies the
// same toggles either way).
const maxPendingMasks = 1024

// NewLink prepares the channel state for a directed tx→rx pair over the
// given carrier frequencies (Hz). Pair-shaped geometry is fetched from
// (or lazily added to) the grid's shared channel plane.
func (g *Grid) NewLink(tx, rx NodeID, freqs []float64) *Link {
	p := g.planeFor(freqs)
	l := &Link{g: g, p: p, tx: tx, rx: rx, freqs: freqs}

	l.d0 = g.Dist(tx, rx)
	l.pg = p.pairCoreFor(tx, rx)
	l.site = p.siteFor(rx)

	// Fixed attenuation: cross-board penalty plus the directional
	// coupler losses of the two outlets.
	if g.Nodes[tx].Board != g.Nodes[rx].Board {
		l.fixedDB -= g.BoardCrossingPenaltyDB
	}
	l.fixedDB -= detrand.Uniform(uint64(g.seed), uint64(tx), 0x7c0) * couplerLossMaxDB
	l.fixedDB -= detrand.Uniform(uint64(g.seed), uint64(rx), 0x7c1) * couplerLossMaxDB

	// The per-carrier channel arrays (direct/structural phasors, noise,
	// gain) are built lazily on first SNR read — see buildGeometry and
	// ensureChannel. Links that only serve mask/epoch queries and ShiftDB
	// (a feed that never estimates) never pay the carrier loops.
	return l
}

// buildGeometry allocates the per-carrier slabs and computes the
// mask-independent channel components: the direct-path phasor and the
// static structural-tap reflections. Noise floors start at the shared
// background. Idempotent.
func (l *Link) buildGeometry() {
	if l.geomBuilt {
		return
	}
	l.geomBuilt = true
	g, freqs := l.g, l.freqs
	n := len(freqs)
	l.direct = make([]complex128, n)
	l.refl = make([]complex128, n)
	l.hRefl = make([]complex128, n)
	l.gainDB = make([]float64, n)
	l.noiseLin = make([]float64, mains.Slots*n)
	l.snrBase = make([]float64, mains.Slots*n)

	// Direct-path phasor, carrying the structural tap losses of every
	// junction it crosses (the dominant attenuation).
	if !math.IsInf(l.d0, 1) {
		structDB := g.tapSumDB(l.tx, l.rx)
		for c, f := range freqs {
			db := attDB(f, l.d0) + structDB
			amp := directGain * math.Pow(10, -db/20)
			phase := -2 * math.Pi * f * l.d0 / propVelocity
			l.direct[c] = cmplx.Rect(amp, phase)
		}

		// Static reflections from structural taps (non-appliance
		// multipath): one bounce per reachable node.
		for i := range g.Nodes {
			nd := NodeID(i)
			if nd == l.tx || nd == l.rx {
				continue
			}
			dTx, dRx := g.rawDist(l.tx, nd), g.rawDist(nd, l.rx)
			if math.IsInf(dTx, 1) || math.IsInf(dRx, 1) {
				continue
			}
			dRefl := dTx + dRx + stubExtraM
			lossDB := g.tapSumDB(l.tx, nd) + g.tapSumDB(nd, l.rx)
			gamma := g.Nodes[nd].Gamma
			sign := detrand.Sign(uint64(g.seed), uint64(nd), 0x516)
			co := sign * bounceGain * gamma
			for c, f := range freqs {
				db := attDB(f, dRefl) + lossDB
				amp := math.Pow(10, -db/20)
				l.refl[c] += complex(co*amp, 0) *
					cmplx.Rect(1, -2*math.Pi*f*dRefl/propVelocity)
			}
		}
	}

	// Noise floors start at the shared background.
	for s := 0; s < mains.Slots; s++ {
		copy(l.noiseLin[s*n:(s+1)*n], l.p.bgLin)
	}
}

// ensureChannel materialises the mask-dependent channel state. The values
// are bit-identical to what the historical eager path would hold: the
// pending list is the exact sequence of masks Advance applied, each replay
// step executes the same toggles in the same (ascending-bit) order on the
// same starting state, and the intermediate gains that the eager path
// computed but nobody read are the only thing skipped (one finishUpdate at
// the end replaces per-step ones; finishUpdate is a pure function of the
// phasor state).
func (l *Link) ensureChannel() {
	if l.matzd {
		return
	}
	l.matzd = true
	l.buildGeometry()
	l.p.ensureVec(l.pg)
	l.rebuild(l.firstMask)
	if len(l.pending) > 0 {
		cur := l.firstMask
		for _, m := range l.pending {
			diff := m ^ cur
			for i := 0; diff != 0; i++ {
				if diff&1 != 0 {
					l.toggle(i, m&(1<<uint(i)) != 0)
				}
				diff >>= 1
			}
			cur = m
		}
		l.pending = nil
		l.finishUpdate()
	}
}

// backgroundNoiseDBmHz is the coloured background noise floor of the mains
// (high at low frequencies, flattening out above ~10 MHz).
func backgroundNoiseDBmHz(f float64) float64 {
	return -110 + 30*math.Exp(-f/1e6/3.0)
}

// Carriers returns the carrier frequencies of the link.
func (l *Link) Carriers() []float64 { return l.freqs }

// CableDistance returns the direct cable run in metres.
func (l *Link) CableDistance() float64 { return l.d0 }

// Epoch returns the current epoch counter without advancing the link —
// the generation that snapshot caches key on (it moves exactly when a
// mask transition touched this link's reachable appliance set).
func (l *Link) Epoch() uint64 { return l.epoch }

// Advance brings the channel state up to time t, applying any appliance
// switches since the last call, and returns the current epoch. The mask
// itself comes from the plane's shared timeline (one schedule evaluation
// per instant serves every link), but the epoch counter is per-link and
// strictly monotonic: it increments on every transition *this link*
// applied, so per-epoch caches (the PHY estimator's load curves) can
// never alias a revisited mask against incrementally-drifted state.
func (l *Link) Advance(t time.Duration) uint64 {
	// Interval fast path: the previous Advance cached the transition
	// interval it landed in; while t stays inside it (and the timeline
	// generation is unchanged), the mask cannot have moved.
	if l.started && l.ivGen == l.g.tlGen.Load() && t >= l.ivStart && t < l.ivEnd {
		return l.epoch
	}
	m, lo, hi, gen := l.g.maskIntervalAt(t)
	l.ivStart, l.ivEnd, l.ivGen = lo, hi, gen
	if l.pg.na != len(l.g.Appliances) {
		// The appliance population grew since this link's shared geometry
		// was built (a mid-run Plug — the timeline bump that follows it is
		// what got us past the interval fast path). Rebind to the plane's
		// refreshed cores, which are sized for the new population, and
		// rebuild the channel at the current mask: a structural event, so
		// the epoch moves and every downstream cache re-evaluates.
		l.pg = l.p.pairCoreFor(l.tx, l.rx)
		l.site = l.p.siteFor(l.rx)
		if l.started {
			if l.matzd {
				l.p.ensureVec(l.pg)
				l.rebuild(m)
			} else {
				// Not yet materialised: restart the replay base at the
				// current mask — exactly the state an eager rebuild at m
				// would produce.
				l.firstMask = m
				l.pending = nil
			}
			l.mask = m
			l.epoch++
			return l.epoch
		}
	}
	if !l.started {
		l.started = true
		l.firstMask = m
		l.mask = m
		return l.epoch
	}
	if m == l.mask {
		return l.epoch
	}
	diff := m ^ l.mask
	if diff&l.pg.reachBits == 0 {
		// Dirty skip: none of the toggled appliances is electrically
		// reachable from this pair, so the channel state is untouched —
		// toggling an unreachable appliance adds a zero reflection row,
		// touches no on-path tap and injects no noise. The epoch does
		// not move, so per-epoch caches downstream stay warm.
		l.mask = m
		return l.epoch
	}
	if !l.matzd {
		// Record the mask for exact replay at materialisation time.
		l.pending = append(l.pending, m)
		l.mask = m
		l.epoch++
		if len(l.pending) >= maxPendingMasks {
			l.ensureChannel()
		}
		return l.epoch
	}
	for i := 0; diff != 0; i++ {
		if diff&1 != 0 {
			l.toggle(i, m&(1<<uint(i)) != 0)
		}
		diff >>= 1
	}
	l.finishUpdate()
	l.mask = m
	l.epoch++
	return l.epoch
}

// coeff returns the reflection coefficient multiplier of appliance i in the
// given state.
func (l *Link) coeff(i int, on bool) float64 {
	if on {
		return l.p.app[i].coeffOn
	}
	return l.p.app[i].coeffOff
}

// tapFactor returns the direct-path transmission factor of an on-path
// appliance tap.
func (l *Link) tapFactor(i int, on bool) float64 {
	if on {
		return l.p.app[i].tapOn
	}
	return l.p.app[i].tapOff
}

// rebuild computes the full channel state for a mask from scratch.
func (l *Link) rebuild(mask uint64) {
	n := len(l.freqs)
	for c := range l.hRefl {
		l.hRefl[c] = 0
	}
	l.tapProd = 1
	for s := 0; s < mains.Slots; s++ {
		copy(l.noiseLin[s*n:(s+1)*n], l.p.bgLin)
	}
	for i := range l.g.Appliances {
		on := mask&(1<<uint(i)) != 0
		co := l.coeff(i, on)
		pv := l.pg.row(i)
		for c := range l.hRefl {
			l.hRefl[c] += complex(co, 0) * pv[c]
		}
		if l.pg.onPath[i] {
			l.tapProd *= l.tapFactor(i, on)
		}
		if on {
			l.addNoise(i, +1)
		}
	}
	l.finishUpdate()
}

// toggle flips appliance i to the given state, updating reflections, tap
// losses and noise incrementally.
func (l *Link) toggle(i int, on bool) {
	oldCo := l.coeff(i, !on)
	newCo := l.coeff(i, on)
	d := complex(newCo-oldCo, 0)
	pv := l.pg.row(i)
	for c := range l.hRefl {
		l.hRefl[c] += d * pv[c]
	}
	if l.pg.onPath[i] {
		l.tapProd *= l.tapFactor(i, on) / l.tapFactor(i, !on)
	}
	if on {
		l.addNoise(i, +1)
	} else {
		l.addNoise(i, -1)
	}
}

func (l *Link) addNoise(i int, sign float64) {
	if !l.pg.reach[i] {
		return // unreachable appliance
	}
	n := len(l.freqs)
	nv := l.site.row(i)
	for s := 0; s < mains.Slots; s++ {
		mul := sign * l.p.app[i].slotMul[s]
		dst := l.noiseLin[s*n : (s+1)*n]
		for c := range dst {
			dst[c] += mul * nv[c]
		}
	}
}

// finishUpdate recomputes the per-carrier gain and invalidates SNR caches.
func (l *Link) finishUpdate() {
	tp := complex(l.tapProd, 0)
	for c := range l.gainDB {
		h := l.direct[c]*tp + l.refl[c] + l.hRefl[c]
		p := real(h)*real(h) + imag(h)*imag(h)
		if p < 1e-30 {
			p = 1e-30
		}
		l.gainDB[c] = 10*math.Log10(p) + l.fixedDB
	}
	for s := range l.snrValid {
		l.snrValid[s] = false
	}
}

// SNRBase returns the per-carrier SNR (dB) in the given tone-map slot at
// the current epoch, excluding the fast flicker/impulse component (which is
// reported separately by ShiftDB). The returned slice is owned by the Link
// and valid until the next Advance call.
func (l *Link) SNRBase(slot int) []float64 {
	if !l.matzd {
		if l.started {
			l.ensureChannel()
		} else {
			// Pre-Advance read: historical links held geometry with no
			// mask applied; reproduce that view without committing to a
			// first mask.
			l.buildGeometry()
		}
	}
	n := len(l.freqs)
	out := l.snrBase[slot*n : (slot+1)*n]
	if l.snrValid[slot] {
		return out
	}
	nl := l.noiseLin[slot*n : (slot+1)*n]
	for c := range out {
		nDB := 10 * math.Log10(nl[c])
		out[c] = TxPSDdBmHz + l.gainDB[c] - nDB
	}
	l.snrValid[slot] = true
	return out
}

// ShiftDB returns the band-average noise-floor shift (dB) at time t caused
// by appliance flicker and switching impulses, relative to the flicker-free
// baseline that SNRBase reports. Positive values mean more noise (SNR
// drops by the same amount, uniformly across carriers — an approximation
// documented in DESIGN.md). The per-appliance factors come from the shared
// plane, evaluated once per instant for the whole grid.
func (l *Link) ShiftDB(t time.Duration) float64 {
	base := l.p.bgW
	moved := l.p.bgW
	mask := l.mask
	if !l.started {
		mask = l.p.maskAt(t)
	}
	// Only appliances that are on, reachable and audible (nonzero
	// attenuated noise weight) contribute — iterate the set bits of the
	// intersection instead of scanning the appliance roster.
	on := mask & l.pg.reachBits & l.site.wBits
	// One plane lock spans the whole factor pass (links of one grid may
	// be driven from different goroutines; see Plane.mu). The shift is a
	// pure function of (site, on, t), so the site's memo returns the
	// previously computed float verbatim for every other link sharing
	// this receiver at the same instant.
	l.p.mu.Lock()
	if l.site.shiftMemoOK && l.site.shiftMemoT == t && l.site.shiftMemoOn == on {
		v := l.site.shiftMemoVal
		l.p.mu.Unlock()
		return v
	}
	l.p.syncShift(t)
	for rest := on; rest != 0; rest &= rest - 1 {
		i := bits.TrailingZeros64(rest)
		w := l.site.noiseW[i]
		base += w
		moved += w * l.p.shiftFactor(t, i)
	}
	v := 10 * math.Log10(moved/base)
	l.site.shiftMemoT, l.site.shiftMemoOn = t, on
	l.site.shiftMemoVal, l.site.shiftMemoOK = v, true
	l.p.mu.Unlock()
	return v
}

// NoiseShiftStatic reports whether ShiftDB is a constant of t at the
// link's current mask: no appliance that is simultaneously on, reachable,
// audible and volatile (flicker or impulse terms in its class) remains, so
// every contributing factor is exactly 1 and the shift is identically zero
// until the next mask transition this link applies — which bumps the epoch
// and therefore the link's state version. Callers must Advance(t) first so
// the mask is current; an unstarted link conservatively reports false.
func (l *Link) NoiseShiftStatic() bool {
	if !l.started {
		return false
	}
	on := l.mask & l.pg.reachBits & l.site.wBits
	l.p.mu.Lock()
	static := on&l.p.volatileBits == 0
	l.p.mu.Unlock()
	return static
}

// MeanSNRdB returns the carrier-average SNR in dB for a slot — a scalar
// summary used for coarse link classification and by tests.
func (l *Link) MeanSNRdB(slot int) float64 {
	snr := l.SNRBase(slot)
	var s float64
	for _, v := range snr {
		s += v
	}
	return s / float64(len(snr))
}
