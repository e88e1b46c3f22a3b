package phy

import "sort"

// Modulation levels available per carrier (HPAV: BPSK, QPSK, 8/16/64/256/
// 1024-QAM) with the approximate SNR (dB) required to sustain the target
// coded error rate.
type modLevel struct {
	Bits  int
	SNRdB float64
}

var modLevels = []modLevel{
	{1, 4},    // BPSK
	{2, 7},    // QPSK
	{3, 10.5}, // 8-QAM
	{4, 14},   // 16-QAM
	{6, 21},   // 64-QAM
	{8, 27},   // 256-QAM
	{10, 33},  // 1024-QAM
}

// BitsForSNR returns the densest loading a carrier with the given SNR (dB)
// sustains, with the given engineering margin subtracted first.
func BitsForSNR(snrDB, marginDB float64) int {
	eff := snrDB - marginDB
	bits := 0
	for _, m := range modLevels {
		if eff >= m.SNRdB {
			bits = m.Bits
		} else {
			break
		}
	}
	return bits
}

// LoadCurve answers "what total bit loading does this SNR vector sustain if
// the whole spectrum shifts by Δ dB?" in O(log n) per query. It is built
// once per channel epoch and slot; tone-map estimation and the
// rate-improvement trigger both evaluate it at the current noise shift.
type LoadCurve struct {
	sorted []float64 // carrier SNRs, ascending
	weight float64   // physical carriers represented per entry
}

// NewLoadCurve builds a load curve from a per-carrier SNR vector (dB).
// weight is the number of physical carriers each entry represents
// (CarrierPlan.CarriersRepresented).
func NewLoadCurve(snr []float64, weight float64) *LoadCurve {
	s := append([]float64(nil), snr...)
	sort.Float64s(s)
	if weight <= 0 {
		weight = 1
	}
	return &LoadCurve{sorted: s, weight: weight}
}

// TotalBits returns B = Σ_carriers bits(snr_c - shift - margin): the total
// bits per OFDM symbol the channel sustains under a uniform noise shift.
func (lc *LoadCurve) TotalBits(shiftDB, marginDB float64) float64 {
	n := len(lc.sorted)
	if n == 0 {
		return 0
	}
	var bits float64
	prev := 0
	for _, m := range modLevels {
		thr := m.SNRdB + shiftDB + marginDB
		// Number of carriers with snr >= thr.
		i := sort.SearchFloat64s(lc.sorted, thr)
		cnt := n - i
		if cnt == 0 {
			break
		}
		bits += float64(m.Bits-prev) * float64(cnt)
		prev = m.Bits
	}
	return bits * lc.weight
}

// ActiveCarriers returns how many (physical) carriers carry at least one
// bit under the given shift and margin.
func (lc *LoadCurve) ActiveCarriers(shiftDB, marginDB float64) float64 {
	thr := modLevels[0].SNRdB + shiftDB + marginDB
	i := sort.SearchFloat64s(lc.sorted, thr)
	return float64(len(lc.sorted)-i) * lc.weight
}

// Len reports the number of (possibly decimated) entries.
func (lc *LoadCurve) Len() int { return len(lc.sorted) }
