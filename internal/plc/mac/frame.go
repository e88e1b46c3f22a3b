package mac

import (
	"fmt"
	"time"

	"repro/internal/plc/phy"
)

// PB is one 512-byte physical block of a segmented Ethernet packet.
type PB struct {
	// PacketID identifies the originating Ethernet packet.
	PacketID uint32
	// Index is the PB's position within its packet.
	Index int
	// Payload is the number of payload bytes carried (the final PB of a
	// packet may be padded to PBSize on the wire).
	Payload int
}

// Segment splits an Ethernet packet of the given size into physical
// blocks. Packets always produce at least one PB (PLC pads short packets
// to a full block, footnote 9 of the paper). The segmentation quantum is
// PBOnWire: the paper's §7.2 boundary counts a 520-byte probe as exactly
// one physical block.
func Segment(packetID uint32, size int) []PB {
	if size <= 0 {
		size = 1
	}
	var pbs []PB
	for off, i := 0, 0; off < size; off, i = off+phy.PBOnWire, i+1 {
		p := size - off
		if p > phy.PBOnWire {
			p = phy.PBOnWire
		}
		pbs = append(pbs, PB{PacketID: packetID, Index: i, Payload: p})
	}
	return pbs
}

// Reassemble checks that a PB sequence forms the complete packet and
// returns its payload size.
func Reassemble(pbs []PB) (size int, err error) {
	if len(pbs) == 0 {
		return 0, fmt.Errorf("mac: empty PB set")
	}
	id := pbs[0].PacketID
	for i, pb := range pbs {
		if pb.PacketID != id {
			return 0, fmt.Errorf("mac: mixed packets %d and %d", id, pb.PacketID)
		}
		if pb.Index != i {
			return 0, fmt.Errorf("mac: PB %d out of order (index %d)", i, pb.Index)
		}
		size += pb.Payload
	}
	return size, nil
}

// Frame is one PLC MPDU: aggregated PBs transmitted under a tone map.
type Frame struct {
	Src, Dst int
	PBs      []PB
	// TMI and BLEs mirror the start-of-frame delimiter contents: the
	// tone-map identifier and the bit-loading estimate of the slot the
	// frame is sent in.
	TMI  uint8
	BLEs float64
	// Slot is the tone-map slot the transmission started in.
	Slot int
	// Symbols is the frame body length.
	Symbols int
	// Retransmission marks frames that carry previously failed PBs.
	// The real SoF does not expose this flag — the paper infers it from
	// arrival timestamps (§8.1) — but the simulator tracks ground truth
	// so experiments can validate the inference.
	Retransmission bool
}

// Airtime returns the frame's on-air duration.
func (f *Frame) Airtime() time.Duration { return FrameAirtime(f.Symbols) }

// SoF is the captured start-of-frame delimiter: everything the sniffer of
// §3.2 can observe about a frame it did not address (Table 2: the arrival
// timestamp and BLE come from SoF capture).
type SoF struct {
	Timestamp time.Duration
	Src, Dst  int
	TMI       uint8
	BLEs      float64
	Slot      int
	Airtime   time.Duration
	NPBs      int
}

// SACK is the selective acknowledgment of one frame: which PBs failed.
type SACK struct {
	Failed []int // indices into the acknowledged frame's PB slice
}

// BuildFrame aggregates up to max PBs from the queue under the given tone
// map, honouring the maximum frame duration. It returns the frame and the
// number of PBs consumed.
func BuildFrame(src, dst int, queue []PB, tm *phy.ToneMap, slot int) (*Frame, int) {
	if len(queue) == 0 {
		return nil, 0
	}
	maxPB := MaxPBsPerFrame(tm.TotalBits, tm.FECRate)
	if maxPB < 1 {
		return nil, 0
	}
	n := len(queue)
	if n > maxPB {
		n = maxPB
	}
	f := &Frame{
		Src:     src,
		Dst:     dst,
		PBs:     append([]PB(nil), queue[:n]...),
		TMI:     tm.TMI,
		BLEs:    tm.BLE(),
		Slot:    slot,
		Symbols: SymbolsForPBs(n, tm.TotalBits, tm.FECRate),
	}
	return f, n
}
