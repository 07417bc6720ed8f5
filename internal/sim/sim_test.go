package sim

import (
	"context"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestFabricPermutations: in every slot, each fabric realizes a permutation
// (distinct inputs connect to distinct intermediates, and distinct
// intermediates to distinct outputs).
func TestFabricPermutations(t *testing.T) {
	const n = 16
	for tt := Slot(0); tt < 3*n; tt++ {
		seenMid := make([]bool, n)
		seenOut := make([]bool, n)
		for i := 0; i < n; i++ {
			l := FirstStage(i, tt, n)
			if seenMid[l] {
				t.Fatalf("slot %d: two inputs connect to intermediate %d", tt, l)
			}
			seenMid[l] = true
			j := SecondStage(i, tt, n)
			if seenOut[j] {
				t.Fatalf("slot %d: two intermediates connect to output %d", tt, j)
			}
			seenOut[j] = true
		}
	}
}

// TestFabricCoverage: over any N consecutive slots, an input is connected to
// every intermediate port exactly once (the 1/N service rate property), and
// likewise for intermediate-to-output.
func TestFabricCoverage(t *testing.T) {
	const n = 8
	for i := 0; i < n; i++ {
		seen := make(map[int]int)
		for tt := Slot(100); tt < 100+n; tt++ {
			seen[FirstStage(i, tt, n)]++
		}
		if len(seen) != n {
			t.Fatalf("input %d covered %d intermediates over N slots", i, len(seen))
		}
	}
	for l := 0; l < n; l++ {
		seen := make(map[int]int)
		for tt := Slot(100); tt < 100+n; tt++ {
			seen[SecondStage(l, tt, n)]++
		}
		if len(seen) != n {
			t.Fatalf("intermediate %d covered %d outputs over N slots", l, len(seen))
		}
	}
}

func TestFabricInverses(t *testing.T) {
	f := func(iRaw, lRaw uint8, tRaw int16, nExp uint8) bool {
		n := 1 << (nExp % 7) // 1..64
		i := int(iRaw) % n
		l := int(lRaw) % n
		tt := Slot(tRaw)
		if InputFor(FirstStage(i, tt, n), tt, n) != i {
			return false
		}
		if IntermediateFor(SecondStage(l, tt, n), tt, n) != l {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestOutputSweepIncreasing: the intermediate port feeding a given output
// advances by exactly one each slot — the property the virtual schedule
// grids rely on.
func TestOutputSweepIncreasing(t *testing.T) {
	const n = 32
	for j := 0; j < n; j++ {
		prev := IntermediateFor(j, 0, n)
		for tt := Slot(1); tt < 2*n; tt++ {
			cur := IntermediateFor(j, tt, n)
			if cur != (prev+1)%n {
				t.Fatalf("output %d sweep jumped from %d to %d", j, prev, cur)
			}
			prev = cur
		}
	}
}

// TestPacketFitsRegisters: Packet and Delivery each have at most 4 fields
// and 32 bytes, the bounds within which the Go compiler keeps a struct in
// registers (ssa.CanSSA in cmd/compile/internal/ssa, MaxStruct = 4). One
// field more and every per-packet pass, return and copy goes through stack
// memory as 16-byte loads of bytes just stored, which the CPU cannot forward
// from its store buffer and stalls on.
func TestPacketFitsRegisters(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		size uintptr
	}{
		{reflect.TypeFor[Packet](), unsafe.Sizeof(Packet{})},
		{reflect.TypeFor[Delivery](), unsafe.Sizeof(Delivery{})},
	} {
		if c.typ.NumField() > 4 || c.size > 32 {
			t.Errorf("%v has %d fields in %d bytes, want at most 4 in 32", c.typ, c.typ.NumField(), c.size)
		}
	}
}

func TestDeliveryDelay(t *testing.T) {
	d := Delivery{Packet: Packet{Arrival: 10}, Depart: 25}
	if d.Delay() != 15 {
		t.Fatalf("Delay = %d", d.Delay())
	}
}

// fakeSwitch buffers everything and delivers each packet exactly k slots
// after arrival; it exists to test the Runner's accounting.
type fakeSwitch struct {
	n       int
	t       Slot
	k       Slot
	pending map[Slot][]Packet
	backlog int
}

func newFakeSwitch(n int, k Slot) *fakeSwitch {
	return &fakeSwitch{n: n, k: k, pending: make(map[Slot][]Packet)}
}

func (f *fakeSwitch) N() int       { return f.n }
func (f *fakeSwitch) Now() Slot    { return f.t }
func (f *fakeSwitch) Backlog() int { return f.backlog }
func (f *fakeSwitch) Arrive(p Packet) {
	f.pending[p.Arrival+f.k] = append(f.pending[p.Arrival+f.k], p)
	f.backlog++
}
func (f *fakeSwitch) Step(deliver DeliverFunc) {
	for _, p := range f.pending[f.t] {
		f.backlog--
		if deliver != nil {
			deliver(Delivery{Packet: p, Depart: f.t})
		}
	}
	delete(f.pending, f.t)
	f.t++
}

// scriptSource emits one packet per slot from input 0.
type scriptSource struct{ n int }

func (s scriptSource) N() int { return s.n }
func (s scriptSource) Next(t Slot, emit func(Packet)) {
	emit(Packet{In: 0, Out: 0, Seq: uint64(t), Arrival: t})
}

func TestRunWarmupFiltering(t *testing.T) {
	sw := newFakeSwitch(4, 3)
	var seen []Slot
	obs := ObserverFunc(func(d Delivery) { seen = append(seen, d.Packet.Arrival) })
	offered, delivered := Run(sw, scriptSource{4}, obs, WithWarmup(10), WithSlots(20))
	// Packets arriving in slots 10..29 are measured; those arriving in
	// 27..29 depart after the horizon.
	if offered != 20 {
		t.Fatalf("offered = %d, want 20", offered)
	}
	if delivered != 17 {
		t.Fatalf("delivered = %d, want 17", delivered)
	}
	for _, a := range seen {
		if a < 10 {
			t.Fatalf("warmup packet (arrival %d) reached observer", a)
		}
	}
}

func TestRunRejectsMismatchedSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	Run(newFakeSwitch(4, 0), scriptSource{8}, nil, WithSlots(1))
}

// TestRunOnSlotHook: the per-slot hook fires exactly once per slot, after
// the slot's deliveries, across warmup and measured slots alike.
func TestRunOnSlotHook(t *testing.T) {
	sw := newFakeSwitch(4, 2)
	var ticks []Slot
	var deliveredAtTick []int64
	var delivered int64
	obs := ObserverFunc(func(Delivery) { delivered++ })
	Run(sw, scriptSource{4}, obs,
		WithWarmup(5), WithSlots(10),
		WithSlotHook(func(tt Slot) {
			ticks = append(ticks, tt)
			deliveredAtTick = append(deliveredAtTick, delivered)
		}))
	if len(ticks) != 15 {
		t.Fatalf("OnSlot fired %d times, want 15", len(ticks))
	}
	for i, tt := range ticks {
		if tt != Slot(i) {
			t.Fatalf("tick %d reported slot %d", i, tt)
		}
	}
	// The first measured packet (arrival 5) departs at slot 7; the hook at
	// slot 7 must already see it delivered.
	if deliveredAtTick[7] != 1 {
		t.Fatalf("hook at slot 7 saw %d deliveries, want 1 (hook must run after Step)", deliveredAtTick[7])
	}
}

// TestRunWithContextCancel: a done context stops the run at the next poll
// with the counts accumulated so far.
func TestRunWithContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	offered, _ := Run(newFakeSwitch(4, 0), scriptSource{4}, nil,
		WithSlots(100_000), WithContext(ctx))
	if offered != 0 {
		t.Fatalf("pre-canceled run offered %d packets, want 0", offered)
	}
}

// TestRunParallelismIgnoredOnPlainSwitch: WithParallelism on a switch that
// is not Parallelizable is a no-op, so one knob can drive heterogeneous
// studies.
func TestRunParallelismIgnoredOnPlainSwitch(t *testing.T) {
	offered, delivered := Run(newFakeSwitch(4, 0), scriptSource{4}, nil,
		WithSlots(10), WithParallelism(8))
	if offered != 10 || delivered != 10 {
		t.Fatalf("offered=%d delivered=%d, want 10/10", offered, delivered)
	}
}
