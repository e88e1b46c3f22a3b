// Package core implements the paper's primary contribution: PLC link
// metrics and the estimation machinery hybrid networks need. It provides
// the two IEEE 1905 metrics the paper designs for PLC — capacity from the
// BLE and loss from PBerr — together with probing policies (§7.3), the
// estimation-error evaluation methodology, unicast ETX (§8.1), and the
// link-metric guidelines of Table 3.
package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/stats"
)

// Medium identifies the technology behind a link, as the IEEE 1905
// abstraction layer does.
type Medium int

// Media known to the hybrid layer.
const (
	PLC Medium = iota
	WiFi
)

// String implements fmt.Stringer.
func (m Medium) String() string {
	switch m {
	case PLC:
		return "PLC"
	case WiFi:
		return "WiFi"
	}
	return "unknown-medium"
}

// LinkMetrics is one directed link's entry in the 1905-style metric table.
type LinkMetrics struct {
	Medium Medium
	// CapacityMbps is the PHY-derived capacity estimate: average BLE for
	// PLC (§7.1), MCS rate for WiFi.
	CapacityMbps float64
	// Loss is the PB error rate for PLC or the frame loss rate for WiFi.
	Loss float64
	// UpdatedAt stamps the last probe.
	UpdatedAt time.Duration
}

// MetricTable is the per-node link-metric registry of the abstraction
// layer.
type MetricTable struct {
	entries map[[2]int]LinkMetrics
}

// NewMetricTable returns an empty registry.
func NewMetricTable() *MetricTable {
	return &MetricTable{entries: make(map[[2]int]LinkMetrics)}
}

// Update stores the metrics of the directed link src→dst.
func (mt *MetricTable) Update(src, dst int, m LinkMetrics) {
	mt.entries[[2]int{src, dst}] = m
}

// Lookup returns the metrics of src→dst.
func (mt *MetricTable) Lookup(src, dst int) (LinkMetrics, bool) {
	m, ok := mt.entries[[2]int{src, dst}]
	return m, ok
}

// Len reports the number of tracked links.
func (mt *MetricTable) Len() int { return len(mt.entries) }

// Asymmetry returns the capacity ratio between the two directions of a
// pair (max/min), the spatial-variation statistic of §5. ok is false if
// either direction is missing or has zero capacity.
func (mt *MetricTable) Asymmetry(a, b int) (float64, bool) {
	f, ok1 := mt.Lookup(a, b)
	r, ok2 := mt.Lookup(b, a)
	if !ok1 || !ok2 || f.CapacityMbps <= 0 || r.CapacityMbps <= 0 {
		return 0, false
	}
	ratio := f.CapacityMbps / r.CapacityMbps
	if ratio < 1 {
		ratio = 1 / ratio
	}
	return ratio, true
}

// UETX computes the unicast expected transmission count from per-packet
// frame-transmission samples (§8.1), with its standard deviation.
func UETX(transmissions []int) (mean, std float64) {
	if len(transmissions) == 0 {
		return 0, 0
	}
	xs := make([]float64, len(transmissions))
	for i, v := range transmissions {
		xs[i] = float64(v)
	}
	return stats.MeanStd(xs)
}

// RetransWindow is the SoF inter-arrival threshold below which the paper
// classifies a frame as a retransmission (§8.1: "if the frame arrives
// within an interval of less than 10 ms compared to the previous frame").
const RetransWindow = 10 * time.Millisecond

// TransmissionsFromSoFTimestamps reconstructs per-packet transmission
// counts from a sniffer trace of a low-rate unicast flow using the 10 ms
// rule. It returns one count per detected packet.
func TransmissionsFromSoFTimestamps(stamps []time.Duration) []int {
	if len(stamps) == 0 {
		return nil
	}
	sorted := append([]time.Duration(nil), stamps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var counts []int
	cur := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i]-sorted[i-1] < RetransWindow {
			cur++
		} else {
			counts = append(counts, cur)
			cur = 1
		}
	}
	counts = append(counts, cur)
	return counts
}

// Guideline is one row of the paper's Table 3.
type Guideline struct {
	Policy      string
	Explanation string
	Section     string
}

// Guidelines returns the paper's link-metric estimation guidelines
// (Table 3) as structured data; cmd/experiments prints them and the test
// suite cross-checks each against its experiment.
func Guidelines() []Guideline {
	return []Guideline{
		{"Metrics", "BLE and PBerr, defined by IEEE 1901.", "7, 8.1"},
		{"Unicast probing only", "Broadcast probing cannot be used, as it does not give any information on link quality.", "8.1"},
		{"Shortest time-scale", "BLE should be averaged over the mains cycle.", "6.1"},
		{"Size of probes", "Larger than one PB (or one OFDM symbol) to avoid inaccurate convergence of the rate adaptation algorithm.", "7.2"},
		{"Frequency of probes", "Should be adapted to link quality for lower overhead.", "6.2, 6.3, 7.3"},
		{"Burstiness of probes", "Can tackle inaccurate convergence of the channel estimation algorithm or the sensitivity of link metrics to background traffic.", "7.2, 8.2"},
		{"Asymmetry in probing", "There is both spatial and temporal variation asymmetry in PLC links; bidirectional traffic (e.g. TCP) requires metrics in both directions.", "5, 6.2"},
	}
}

// String renders a guideline as a table row.
func (g Guideline) String() string {
	return fmt.Sprintf("%-22s | %-6s | %s", g.Policy, g.Section, g.Explanation)
}
