package hybrid

import (
	"testing"

	"repro/internal/al"
	"repro/internal/core"
)

// TestWeightsFromStatesMatchesWeights: the batched read path must price
// the same split as the live query path over identical link conditions.
func TestWeightsFromStatesMatchesWeights(t *testing.T) {
	links := []al.Link{
		constLink(core.WiFi, 30, 20),
		constLink(core.PLC, 45, 40),
		darkLink(10, 0),
	}
	states := al.NewSnapshot(0, links...).States()
	for _, s := range []StateScheduler{Proportional{}, RoundRobin{}} {
		live := s.Weights(0, links)
		batched := s.WeightsFromStates(states)
		if len(live) != len(batched) {
			t.Fatalf("%s: length mismatch %d vs %d", s.Name(), len(live), len(batched))
		}
		for i := range live {
			if live[i] != batched[i] {
				t.Fatalf("%s: weight %d diverges: live %v, batched %v", s.Name(), i, live[i], batched[i])
			}
		}
	}
	if live, batched := AggregateThroughput(0, Proportional{}, links), AggregateFromStates(Proportional{}, states); live != batched {
		t.Fatalf("aggregate diverges: live %v, batched %v", live, batched)
	}
}

// TestWeightsFromStatesZeroCapacityFallback mirrors the live path's
// equal-split-over-usable-links fallback.
func TestWeightsFromStatesZeroCapacityFallback(t *testing.T) {
	links := []al.Link{
		constLink(core.WiFi, 0, 10),
		constLink(core.PLC, 0, 20),
		darkLink(0, 0),
	}
	states := al.NewSnapshot(0, links...).States()
	w := Proportional{}.WeightsFromStates(states)
	if w[0] != 0.5 || w[1] != 0.5 || w[2] != 0 {
		t.Fatalf("fallback split wrong: %v", w)
	}
}

// TestAggregateFromStatesAllDark: no usable link means no split exists.
func TestAggregateFromStatesAllDark(t *testing.T) {
	states := al.NewSnapshot(0, darkLink(0, 0), darkLink(0, 0)).States()
	if got := AggregateFromStates(Proportional{}, states); got != 0 {
		t.Fatalf("all-dark aggregate = %v, want 0", got)
	}
	if got := AggregateFromStates(Proportional{}, nil); got != 0 {
		t.Fatalf("empty aggregate = %v, want 0", got)
	}
}
