package phy

import (
	"time"

	"repro/internal/mains"
)

// ToneMap is the per-slot PHY configuration negotiated between two
// stations: a total bit loading, a FEC rate and the PBerr the loading was
// engineered for. The paper's two link metrics — BLE and PBerr — are both
// defined on this structure (§2.1, Definition 1).
type ToneMap struct {
	// TMI is the tone-map identifier carried in the SoF delimiter
	// (analogous to the 802.11n MCS index).
	TMI uint8

	// Slot is the mains sub-interval this map applies to, or -1 for the
	// default (ROBO-estimated) map.
	Slot int

	// TotalBits is B of Definition 1: the sum over all carriers of bits
	// per OFDM symbol.
	TotalBits float64

	// FECRate is R of Definition 1.
	FECRate float64

	// PBerrTarget is the PBerr term of Definition 1 — the error rate
	// assumed when the map was generated. It stays fixed until the map
	// is replaced (the paper stresses this in Definition 1).
	PBerrTarget float64

	// ShiftAtEstimation records the band noise shift (dB) when the map
	// was estimated; the live PBerr model compares the current shift
	// against it.
	ShiftAtEstimation float64

	// MarginAtEstimation is the extra conservatism (dB) applied when the
	// map was generated (estimator convergence penalty + engineering
	// margin).
	MarginAtEstimation float64

	// Robust marks ROBO-mode maps (quarter-rate QPSK): the fallback
	// loading 1901 uses when the channel cannot sustain any data tone
	// map, and the modulation of broadcast traffic. Robust maps decode
	// at SNRs far below the data-loading thresholds.
	Robust bool

	// Created is the estimation timestamp.
	Created time.Duration
}

// BLE returns the bit-loading estimate of IEEE 1901 Definition 1 in Mb/s:
//
//	BLE = B · R · (1 − PBerr) / Tsym
func (tm *ToneMap) BLE() float64 {
	return tm.TotalBits * tm.FECRate * (1 - tm.PBerrTarget) / TSymMicros
}

// SlotMaps is the full tone-map set of one link direction: one map per
// mains sub-interval plus the default ROBO map used before estimation and
// for broadcast.
type SlotMaps struct {
	Maps    [mains.Slots]ToneMap
	Default ToneMap
}

// AverageBLE returns the mean BLE over the slot maps — the quantity the
// int6krate-style management message reports and the capacity estimator of
// §7 uses (BLE-bar = Σ BLEs / L).
func (sm *SlotMaps) AverageBLE() float64 {
	var s float64
	for i := range sm.Maps {
		s += sm.Maps[i].BLE()
	}
	return s / mains.Slots
}

// ForSlot returns the tone map active in the given slot.
func (sm *SlotMaps) ForSlot(s int) *ToneMap { return &sm.Maps[s] }

// NewROBOMap returns the default robust map: QPSK on every carrier,
// rate-1/2 FEC, 4 copies. It is the modulation used for sound frames,
// broadcast and multicast (§2.1).
func NewROBOMap(plan *CarrierPlan) ToneMap {
	nPhys := float64(len(plan.Freqs)) * plan.CarriersRepresented()
	return ToneMap{
		TMI:         0,
		Slot:        -1,
		TotalBits:   nPhys * 2 / ROBOCopies,
		FECRate:     ROBOFECRate,
		PBerrTarget: DefaultPBerrTarget,
		Robust:      true,
	}
}
