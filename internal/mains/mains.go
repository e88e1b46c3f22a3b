// Package mains models the AC mains cycle that paces every HomePlug AV
// mechanism in this repository.
//
// IEEE 1901 synchronises tone maps to the mains: the half-cycle (10 ms at
// 50 Hz) is divided into L = 6 tone-map slots, and a station may use a
// different tone map — hence a different BLE — in each slot, because
// appliance noise is periodic with the mains (the paper's "invariance
// scale", §6.1).
package mains

import "time"

// FrequencyHz is the mains frequency modelled by the testbed (Europe).
const FrequencyHz = 50

// CyclePeriod is the duration of one full mains cycle (20 ms at 50 Hz).
const CyclePeriod = time.Second / FrequencyHz

// HalfCycle is half a mains cycle; the tone-map slot schedule repeats with
// this period (IEEE 1901 §5; the paper observes the resulting 10 ms BLE
// periodicity in Fig. 9).
const HalfCycle = CyclePeriod / 2

// Slots is L, the number of tone-map slots per half mains cycle in
// HomePlug AV.
const Slots = 6

// Phase returns the position of t within the current half cycle,
// in [0, HalfCycle).
func Phase(t time.Duration) time.Duration {
	p := t % HalfCycle
	if p < 0 {
		p += HalfCycle
	}
	return p
}

// SlotAt returns the tone-map slot index (0 .. Slots-1) active at time t.
func SlotAt(t time.Duration) int {
	// Exact rational boundary arithmetic: slot s covers
	// [s*HalfCycle/Slots, (s+1)*HalfCycle/Slots) within the half cycle.
	s := int(Phase(t) * Slots / HalfCycle)
	if s >= Slots { // guard against rounding at the boundary
		s = Slots - 1
	}
	return s
}

// slotBoundary returns the first nanosecond belonging to slot s within a
// half cycle: ceil(s*HalfCycle/Slots). HalfCycle is not an integer
// multiple of Slots in nanoseconds, so boundaries are computed exactly
// rather than as multiples of a rounded slot length.
func slotBoundary(s int) time.Duration {
	return (time.Duration(s)*HalfCycle + Slots - 1) / Slots
}

// NextSlotBoundary returns the first instant strictly after t at which the
// slot index changes.
func NextSlotBoundary(t time.Duration) time.Duration {
	halfStart := t - Phase(t)
	return halfStart + slotBoundary(SlotAt(t)+1)
}
