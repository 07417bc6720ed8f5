// Package sprinklers is a faithful, self-contained reproduction of
// "Sprinklers: A Randomized Variable-Size Striping Approach to
// Reordering-Free Load-Balanced Switching" (Ding, Xu, Dai, Song, Lin,
// CoNeXT 2014).
//
// It provides:
//
//   - the Sprinklers switch itself (randomized variable-size dyadic striping
//     with Largest Stripe First scheduling at both stages);
//   - every baseline the paper compares against: the baseline load-balanced
//     switch, Uniform Frame Spreading (UFS), Full Ordered Frames First
//     (FOFF), Padded Frames (PF), and TCP hashing;
//   - the slot-synchronous simulation substrate, workload generators and
//     measurement instruments used to drive them;
//   - the analytical machinery of the paper's evaluation: the Theorem 1/2
//     large-deviation overload bounds (Table 1) and the intermediate-stage
//     Markov delay model (Figure 5).
//
// The package is a facade: it re-exports the stable surface of the internal
// packages so that a downstream user needs a single import. See the
// package examples for walkthroughs and cmd/ for the experiment binaries
// that regenerate every table and figure in the paper.
//
// # Quick start
//
//	m := sprinklers.Uniform(32, 0.8) // 32 ports, load 0.8
//	sw, err := sprinklers.New(sprinklers.ConfigFromMatrix(m, 1))
//	if err != nil { ... }
//	delay := sprinklers.RunBernoulli(sw, m, 100_000, 42)
//	fmt.Println("mean delay:", delay.Mean())
package sprinklers

import (
	"math/rand"

	_ "sprinklers/internal/arch" // link every built-in architecture, workload and scenario
	"sprinklers/internal/core"
	"sprinklers/internal/registry"
	"sprinklers/internal/sim"
	"sprinklers/internal/stats"
	"sprinklers/internal/traffic"
)

// Core simulation types, re-exported from the engine.
type (
	// Slot is a discrete time-slot index.
	Slot = sim.Slot
	// Packet is the fixed-size cell transiting a switch.
	Packet = sim.Packet
	// Delivery records a packet leaving a switch output.
	Delivery = sim.Delivery
	// Switch is the interface every architecture implements.
	Switch = sim.Switch
	// Source generates packet arrivals. It numbers each (In, Out) flow's
	// packets Seq 0, 1, 2 … with no gap: a switch derives a buffered
	// packet's Seq from its queue position and panics on a gap.
	Source = sim.Source
	// Observer consumes deliveries during a run.
	Observer = sim.Observer
	// Option configures a Run (see WithWarmup and friends).
	Option = sim.Option
)

// Run options, re-exported from the engine.
var (
	// WithWarmup discards deliveries of packets arriving in the first w slots.
	WithWarmup = sim.WithWarmup
	// WithSlots sets the measured horizon executed after the warmup.
	WithSlots = sim.WithSlots
	// WithSlotHook invokes a callback once per executed slot.
	WithSlotHook = sim.WithSlotHook
	// WithContext stops the run early once the context is done.
	WithContext = sim.WithContext
)

// Sprinklers switch configuration, re-exported from the core.
type (
	// Config configures a Sprinklers switch.
	Config = core.Config
	// AdaptiveConfig enables measured-rate stripe resizing.
	AdaptiveConfig = core.AdaptiveConfig
	// Scheduler selects the LSF variant.
	Scheduler = core.Scheduler
	// SprinklersSwitch is the concrete Sprinklers switch type.
	SprinklersSwitch = core.Switch
)

// LSF scheduler variants.
const (
	// GatedLSF is the stripe-atomic, order-preserving scheduler (default).
	GatedLSF = core.GatedLSF
	// GreedyLSF is the work-conserving per-row scan of Sec. 3.4.2.
	GreedyLSF = core.GreedyLSF
)

// Traffic substrate.
type (
	// TrafficMatrix is an N x N VOQ rate matrix.
	TrafficMatrix = traffic.Matrix
	// Bernoulli is the i.i.d. arrival process of the paper's evaluation.
	Bernoulli = traffic.Bernoulli
)

// Workload constructors, re-exported from internal/traffic.
var (
	// Uniform builds the uniform destination pattern of Sec. 6.
	Uniform = traffic.Uniform
	// Diagonal builds the diagonal destination pattern of Sec. 6.
	Diagonal = traffic.Diagonal
	// Hotspot builds a hotspot pattern.
	Hotspot = traffic.Hotspot
	// Zipf builds a heavy-tailed Zipf pattern.
	Zipf = traffic.Zipf
	// NewMatrix builds a rate matrix from explicit entries.
	NewMatrix = traffic.NewMatrix
	// NewBernoulli builds the Bernoulli arrival source for a matrix.
	NewBernoulli = traffic.NewBernoulli
)

// Measurement instruments.
type (
	// DelayStats accumulates packet-delay statistics.
	DelayStats = stats.Delay
	// ReorderStats detects out-of-order deliveries per flow.
	ReorderStats = stats.Reorder
)

// Run drives a switch with a source under functional options; re-exported
// from the engine.
var Run = sim.Run

// Architectures returns the name of every registered switch architecture
// in canonical (paper legend) order: the seven built-in schemes plus
// anything the program registered itself. Each name is accepted by the
// experiment harness and the cmd tools; run any cmd tool with -list for
// the per-architecture option schemas.
func Architectures() []string { return registry.Architectures.Names() }

// Workloads returns the name of every registered traffic workload in
// canonical order, as accepted by the experiment harness and cmd tools.
func Workloads() []string { return registry.Workloads.Names() }

// Scenarios returns the name of every registered dynamic scenario in
// canonical order, as accepted by experiment.Spec and sweep -scenarios.
func Scenarios() []string { return registry.Scenarios.Names() }

// New builds a Sprinklers switch.
func New(cfg Config) (*SprinklersSwitch, error) { return core.New(cfg) }

// MustNew is New but panics on configuration errors.
func MustNew(cfg Config) *SprinklersSwitch { return core.MustNew(cfg) }

// ConfigFromMatrix builds the standard configuration for a known traffic
// matrix: stripe sizes follow Eq. 1 applied to the matrix rates, placement
// randomness comes from the given seed, and the order-preserving gated LSF
// scheduler is used.
func ConfigFromMatrix(m *TrafficMatrix, seed int64) Config {
	return Config{
		N:     m.N(),
		Rates: m.Rows(), // deep copy: the switch must not alias matrix state
		Rand:  rand.New(rand.NewSource(seed)),
	}
}

// RunBernoulli runs sw under Bernoulli arrivals drawn from m for the given
// number of measured slots (with a warmup of slots/5, overridable via opts)
// and returns the delay statistics. Extra options are appended after the
// defaults, so e.g. WithWarmup takes effect. It panics if
// the switch reorders any packet — callers running the non-order-preserving
// variants should assemble the run themselves.
func RunBernoulli(sw Switch, m *TrafficMatrix, slots Slot, seed int64, opts ...Option) *DelayStats {
	src := traffic.NewBernoulli(m, rand.New(rand.NewSource(seed)))
	delay := &stats.Delay{}
	reorder := stats.NewReorder(m.N())
	runOpts := append([]Option{sim.WithWarmup(slots / 5), sim.WithSlots(slots)}, opts...)
	sim.Run(sw, src, stats.Multi{delay, reorder}, runOpts...)
	if reorder.Reordered() != 0 {
		panic("sprinklers: switch delivered packets out of order")
	}
	return delay
}
