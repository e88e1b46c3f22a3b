// Command hybridlb demonstrates the §7.4 bandwidth aggregation: it builds
// one station pair's WiFi and PLC attachments through the IEEE 1905-style
// abstraction layer, estimates their capacities by probing, and prints
// per-second goodput for WiFi-only, PLC-only, the capacity-proportional
// hybrid, and the round-robin baseline.
//
// The per-second loop is hosted on the floor runtime: a Runtime ticks the
// pair at 1s cadence (ProbeTrain as the PreTick traffic source), and the
// command consumes its own floor's diff stream like any remote tenant
// would — folding updates into a state table with floor.Apply.
//
// Usage:
//
//	hybridlb -a 0 -b 4 -for 60s -spec AV500
//	hybridlb -scenario large-office -a 0 -b 7
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/al"
	"repro/internal/core"
	"repro/internal/floor"
	"repro/internal/hybrid"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hybridlb:", err)
		os.Exit(1)
	}
}

// run parses args and writes the per-second goodput table to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("hybridlb", flag.ExitOnError)
	var (
		a     = fs.Int("a", 0, "station A")
		b     = fs.Int("b", 4, "station B")
		total = fs.Duration("for", 60*time.Second, "run duration (virtual)")
	)
	tbf := cli.RegisterTestbedFlagsOn(fs)
	fs.Parse(args) // ExitOnError: -h exits 0, a bad flag exits 2

	tb, err := tbf.Build()
	if err != nil {
		return err
	}
	pl, err := tb.PLCLink(*a, *b)
	if err != nil {
		return err
	}
	wifiAL, err := tb.ALLink(core.WiFi, *a, *b)
	if err != nil {
		return err
	}

	start := 11 * time.Hour
	plcAL := al.NewPLC(pl)
	for t := start - 30*time.Second; t < start; t += time.Second {
		plcAL.ProbeTrain(t, 1300, 1) // warm the PLC capacity estimate
	}
	topo := al.NewTopology()
	topo.Add(wifiAL)
	topo.Add(plcAL)

	// Host the pair on a floor runtime: every tick probes the PLC link
	// (the §7 rule — tone maps exist only under traffic) and evaluates
	// both links in one batched snapshot; the runtime publishes only the
	// states that moved, and this command replays its own floor's stream
	// exactly as a remote subscriber would.
	rt, err := floor.New(floor.Config{
		ID:       fmt.Sprintf("link-%d-%d", *a, *b),
		Topology: topo,
		Start:    start,
		Cadence:  time.Second,
		PreTick:  func(t time.Duration) { plcAL.ProbeTrain(t, 1300, 1) },
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	sub, _, _ := rt.Subscribe() // before the first tick: no bootstrap yet
	defer sub.Close()

	wifiKey := floor.Key{Src: *a, Dst: *b, Medium: core.WiFi}
	plcKey := floor.Key{Src: *a, Dst: *b, Medium: core.PLC}
	var table map[floor.Key]al.LinkState

	fmt.Fprintf(w, "# link %d-%d: per-second goodput (Mb/s)\n", *a, *b)
	fmt.Fprintln(w, "#    t   wifi    plc  hybrid  round-robin")
	for t := start; t < start+*total; t += time.Second {
		if err := rt.AdvanceTo(t); err != nil {
			return err
		}
		for {
			u, _, ok := sub.TryNext()
			if !ok {
				break
			}
			table = floor.Apply(table, u)
		}
		states := []al.LinkState{table[wifiKey], table[plcKey]}
		h := hybrid.AggregateFromStates(hybrid.Proportional{}, states)
		rr := hybrid.AggregateFromStates(hybrid.RoundRobin{}, states)
		fmt.Fprintf(w, "%5.0fs  %5.1f  %5.1f  %6.1f  %11.1f\n",
			(t - start).Seconds(), states[0].Goodput, states[1].Goodput, h, rr)
	}
	return nil
}
