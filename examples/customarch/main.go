// Customarch: extending the harness without touching it. The program
// registers a toy architecture — an idealized output-queued switch with a
// configurable pipeline latency — under the name "toy-oq", then sweeps two
// option variants of it against real Sprinklers with a declarative Spec.
// Everything downstream of the Register call is stock harness code: the
// spec validates the "latency" option against the schema, the runner
// constructs the switch by name, and the renderer keeps the two variants
// distinct through their "as" labels. The same registration would equally
// make "toy-oq" available to cmd/sweep specs and -algs, and to the
// conformance suite.
package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"sprinklers/internal/experiment"
	"sprinklers/internal/registry"
	"sprinklers/internal/sim"
)

// oqSwitch is an idealized output-queued switch: every packet is placed
// directly into a per-output FIFO on arrival and departs, in order, once
// its pipeline latency has elapsed — one packet per output per slot, as the
// second fabric's speed demands. No real two-stage switch can do this (it
// teleports packets past the input stage), which is exactly what makes it
// a useful delay floor to compare real architectures against.
type oqSwitch struct {
	n       int
	t       sim.Slot
	latency sim.Slot
	out     [][]sim.Packet
	backlog int
}

func (s *oqSwitch) N() int        { return s.n }
func (s *oqSwitch) Now() sim.Slot { return s.t }
func (s *oqSwitch) Backlog() int  { return s.backlog }

func (s *oqSwitch) Arrive(p sim.Packet) {
	s.out[p.Out] = append(s.out[p.Out], p)
	s.backlog++
}

func (s *oqSwitch) Step(deliver sim.DeliverFunc) {
	for j := range s.out {
		q := s.out[j]
		if len(q) == 0 || s.t < q[0].Arrival+s.latency {
			continue
		}
		if deliver != nil {
			deliver(sim.Delivery{Packet: q[0], Depart: s.t})
		}
		s.out[j] = q[1:]
		s.backlog--
	}
	s.t++
}

func init() {
	registry.Architectures.Register(registry.Architecture{
		Name:            "toy-oq",
		Description:     "idealized output-queued switch with a fixed pipeline latency (delay floor)",
		OrderPreserving: true,
		Rank:            900, // after the built-ins in listings
		Options: registry.Schema{
			registry.Int("latency", 1, "fixed pipeline latency in slots before a packet may depart").AtLeast(1),
		},
		New: func(cfg registry.ArchConfig) (sim.Switch, error) {
			return &oqSwitch{
				n:       cfg.N,
				latency: sim.Slot(cfg.Options.Int("latency")),
				out:     make([][]sim.Packet, cfg.N),
			}, nil
		},
	})
}

func main() {
	if err := run(os.Stdout, 20_000); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run sweeps the two toy-oq variants against Sprinklers with the given
// measured slots per point and renders the curves to w.
func run(w io.Writer, slots sim.Slot) error {
	spec := experiment.Spec{
		Name: "customarch",
		Algorithms: []experiment.AlgorithmSpec{
			{Name: "toy-oq", As: "oq-1"},
			{Name: "toy-oq", As: "oq-32", Options: registry.Options{"latency": 32}},
			{Name: experiment.Sprinklers},
		},
		Traffic:  experiment.Traffics(experiment.UniformTraffic),
		Loads:    []float64{0.3, 0.6, 0.9},
		Sizes:    []int{16},
		Replicas: 3,
		Slots:    slots,
		Seed:     1,
	}
	results, err := experiment.RunStudy(context.Background(), spec, experiment.StudyConfig{})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Registered toy architecture vs Sprinklers, uniform traffic, N=16")
	fmt.Fprintln(w)
	experiment.RenderStudyCurves(w, results)
	_, err = fmt.Fprintln(w, `
"toy-oq" exists only in this program: one Architectures.Register call made it
a first-class citizen of the Spec language, with its "latency" option
validated against the declared schema and the two variants kept apart by
their "as" labels. Registering a real architecture works the same way —
see the "Extending the harness" section of the README.`)
	return err
}
