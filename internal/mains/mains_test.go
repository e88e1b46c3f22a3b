package mains

import (
	"testing"
	"testing/quick"
	"time"
)

func TestConstants(t *testing.T) {
	if CyclePeriod != 20*time.Millisecond {
		t.Fatalf("CyclePeriod = %v", CyclePeriod)
	}
	if HalfCycle != 10*time.Millisecond {
		t.Fatalf("HalfCycle = %v", HalfCycle)
	}
	// Boundaries tile the half cycle exactly even though HalfCycle/Slots
	// is not a whole number of nanoseconds.
	if b := NextSlotBoundary(HalfCycle - time.Nanosecond); b != HalfCycle {
		t.Fatalf("last slot boundary = %v, want %v", b, HalfCycle)
	}
}

func TestSlotAtBoundaries(t *testing.T) {
	if s := SlotAt(0); s != 0 {
		t.Fatalf("SlotAt(0) = %d", s)
	}
	b1 := NextSlotBoundary(0) // exact start of slot 1
	if s := SlotAt(b1 - time.Nanosecond); s != 0 {
		t.Fatalf("end of slot 0 = %d", s)
	}
	if s := SlotAt(b1); s != 1 {
		t.Fatalf("start of slot 1 = %d", s)
	}
	if s := SlotAt(HalfCycle - time.Nanosecond); s != Slots-1 {
		t.Fatalf("end of half cycle = %d", s)
	}
	if s := SlotAt(HalfCycle); s != 0 {
		t.Fatalf("wraparound = %d", s)
	}
}

// Property: the slot schedule is periodic with the half cycle.
func TestSlotPeriodicityProperty(t *testing.T) {
	f := func(ms uint32, halves uint8) bool {
		t0 := time.Duration(ms) * time.Microsecond
		return SlotAt(t0) == SlotAt(t0+time.Duration(halves)*HalfCycle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: slots are always in range and NextSlotBoundary advances the slot.
func TestSlotRangeProperty(t *testing.T) {
	f := func(ns int64) bool {
		t0 := time.Duration(ns % int64(time.Hour))
		if t0 < 0 {
			t0 = -t0
		}
		s := SlotAt(t0)
		if s < 0 || s >= Slots {
			return false
		}
		nb := NextSlotBoundary(t0)
		if nb <= t0 {
			return false
		}
		return SlotAt(nb) == (s+1)%Slots
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
