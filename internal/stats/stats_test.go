package stats

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sprinklers/internal/sim"
)

func TestDelayMoments(t *testing.T) {
	var d Delay
	samples := []sim.Slot{0, 1, 2, 3, 4, 100}
	for _, s := range samples {
		d.Add(s)
	}
	if d.Count() != 6 {
		t.Fatalf("Count = %d", d.Count())
	}
	if math.Abs(d.Mean()-110.0/6) > 1e-12 {
		t.Fatalf("Mean = %v", d.Mean())
	}
	if d.Min() != 0 || d.Max() != 100 {
		t.Fatalf("Min/Max = %d/%d", d.Min(), d.Max())
	}
	var want float64
	m := d.Mean()
	for _, s := range samples {
		want += (float64(s) - m) * (float64(s) - m)
	}
	want /= 6
	if math.Abs(d.Variance()-want) > 1e-9 {
		t.Fatalf("Variance = %v, want %v", d.Variance(), want)
	}
	if math.Abs(d.StdDev()-math.Sqrt(want)) > 1e-9 {
		t.Fatalf("StdDev = %v", d.StdDev())
	}
}

func TestDelayEmpty(t *testing.T) {
	var d Delay
	if d.Mean() != 0 || d.Variance() != 0 || d.Percentile(99) != 0 {
		t.Fatal("empty Delay should report zeros")
	}
}

// TestDelayPercentileBounds: the histogram percentile must be an upper
// bound on the exact order statistic and within a factor of two of it.
func TestDelayPercentileBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var d Delay
	var raw []int
	for k := 0; k < 20000; k++ {
		v := int(math.Floor(math.Pow(10, rng.Float64()*4)))
		raw = append(raw, v)
		d.Add(sim.Slot(v))
	}
	sort.Ints(raw)
	for _, p := range []float64{50, 90, 99} {
		exact := raw[int(math.Ceil(p/100*float64(len(raw))))-1]
		got := int(d.Percentile(p))
		if got < exact {
			t.Errorf("p%.0f: estimate %d below exact %d", p, got, exact)
		}
		if got > 2*exact+1 {
			t.Errorf("p%.0f: estimate %d more than 2x exact %d", p, got, exact)
		}
	}
}

func TestDelayNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var d Delay
	d.Add(-1)
}

func TestReorderDetection(t *testing.T) {
	r := NewReorder(4)
	add := func(in, out int, seq uint64) {
		r.Add(sim.Packet{In: int32(in), Out: int32(out), Seq: seq})
	}
	add(0, 0, 0)
	add(0, 0, 1)
	add(0, 1, 0) // different flow, independent
	add(0, 0, 3)
	add(0, 0, 2) // reordered, gap 1
	add(1, 0, 5)
	add(1, 0, 1) // reordered, gap 4
	if r.Reordered() != 2 {
		t.Fatalf("Reordered = %d", r.Reordered())
	}
	if r.MaxGap() != 4 {
		t.Fatalf("MaxGap = %d", r.MaxGap())
	}
	if r.Total() != 7 {
		t.Fatalf("Total = %d", r.Total())
	}
	if math.Abs(r.Fraction()-2.0/7) > 1e-12 {
		t.Fatalf("Fraction = %v", r.Fraction())
	}
}

func TestReorderInOrderStreamClean(t *testing.T) {
	r := NewReorder(2)
	for seq := uint64(0); seq < 1000; seq++ {
		r.Add(sim.Packet{In: 1, Out: 0, Seq: seq})
	}
	if r.Reordered() != 0 {
		t.Fatal("in-order stream flagged")
	}
}

// TestBucketOfMatchesShiftLoop: the bit-length form of bucketOf names the
// same bucket as the shift loop it replaced, for every small delay and
// around every power of two.
func TestBucketOfMatchesShiftLoop(t *testing.T) {
	loop := func(delay sim.Slot) int {
		k := 0
		for v := delay; v > 0; v >>= 1 {
			k++
		}
		return k
	}
	check := func(d sim.Slot) {
		if got, want := bucketOf(d), loop(d); got != want {
			t.Fatalf("bucketOf(%d) = %d, shift loop says %d", d, got, want)
		}
	}
	for d := sim.Slot(0); d <= 1<<16; d++ {
		check(d)
	}
	for e := uint(0); e <= 62; e++ {
		p := sim.Slot(1) << e
		check(p - 1)
		check(p)
		check(p + 1)
	}
}

func TestMultiFansOut(t *testing.T) {
	var a, b int
	m := Multi{
		sim.ObserverFunc(func(sim.Delivery) { a++ }),
		sim.ObserverFunc(func(sim.Delivery) { b++ }),
	}
	m.Observe(sim.Delivery{})
	if a != 1 || b != 1 {
		t.Fatal("Multi did not fan out")
	}
}

// TestMultiDirectMatchesObserve: the type-switched instruments in a Multi
// end in exactly the state their own Observe calls would leave, with every
// observer, the package's own and any other, called in slice order.
func TestMultiDirectMatchesObserve(t *testing.T) {
	const n = 4
	type set struct {
		delay   *Delay
		reorder *Reorder
		win     *Windowed
		log     [][3]int64
	}
	newSet := func() *set {
		return &set{delay: &Delay{}, reorder: NewReorder(n), win: NewWindowed(n, 10, 200, 4)}
	}
	// snap records how many deliveries each instrument has seen, so a
	// snapshot between two instruments pins the order they were called in.
	snap := func(s *set) sim.Observer {
		return sim.ObserverFunc(func(sim.Delivery) {
			s.log = append(s.log, [3]int64{s.delay.Count(), s.reorder.Total(), s.win.ReorderDetector().Total()})
		})
	}
	fast, slow := newSet(), newSet()
	multi := Multi{fast.delay, snap(fast), fast.reorder, fast.win, snap(fast)}
	each := []sim.Observer{slow.delay, snap(slow), slow.reorder, slow.win, snap(slow)}
	rng := rand.New(rand.NewSource(9))
	for t0 := sim.Slot(10); t0 < 210; t0++ {
		for k := rng.Intn(4); k > 0; k-- {
			d := sim.Delivery{
				Packet: sim.Packet{In: int32(rng.Intn(n)), Out: int32(rng.Intn(n)),
					Seq: uint64(rng.Intn(50)), Arrival: t0 - sim.Slot(rng.Intn(10))},
				Depart: t0,
			}
			multi.Observe(d)
			for _, o := range each {
				o.Observe(d)
			}
		}
		fast.win.OnSlot(t0, func() int { return int(t0) })
		slow.win.OnSlot(t0, func() int { return int(t0) })
	}
	if fast.delay.Count() == 0 || fast.reorder.Reordered() == 0 || len(fast.win.Points()) != 4 {
		t.Fatalf("workload degenerate: %d delays, %d reordered, %d windows",
			fast.delay.Count(), fast.reorder.Reordered(), len(fast.win.Points()))
	}
	if !reflect.DeepEqual(fast.delay, slow.delay) {
		t.Errorf("Delay through Multi %+v, through Observe %+v", *fast.delay, *slow.delay)
	}
	if !reflect.DeepEqual(fast.reorder, slow.reorder) {
		t.Errorf("Reorder through Multi %+v, through Observe %+v", *fast.reorder, *slow.reorder)
	}
	if !reflect.DeepEqual(fast.win, slow.win) {
		t.Errorf("Windowed through Multi %+v, through Observe %+v", fast.win.Points(), slow.win.Points())
	}
	if len(fast.log) != len(slow.log) {
		t.Fatalf("foreign observers called %d times through Multi, %d through Observe", len(fast.log), len(slow.log))
	}
	for k := range fast.log {
		if fast.log[k] != slow.log[k] {
			t.Fatalf("observer order differs at call %d: counts %v through Multi, %v through Observe", k, fast.log[k], slow.log[k])
		}
	}
}

// TestMultiObserveZeroAllocSteadyState: fanning a delivery out to the
// package's instruments and to a foreign observer allocates nothing.
func TestMultiObserveZeroAllocSteadyState(t *testing.T) {
	calls := 0
	multi := Multi{&Delay{}, NewReorder(4), NewWindowed(4, 0, 100, 2),
		sim.ObserverFunc(func(sim.Delivery) { calls++ })}
	d := sim.Delivery{Packet: sim.Packet{In: 1, Out: 2, Seq: 3, Arrival: 4}, Depart: 9}
	if allocs := testing.AllocsPerRun(100, func() { multi.Observe(d) }); allocs != 0 {
		t.Fatalf("Multi.Observe allocated %v times per delivery, want 0", allocs)
	}
	if calls == 0 {
		t.Fatal("foreign observer never called")
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	got := Quantiles(xs, 0, 0.5, 1)
	want := []float64{1, 2.5, 4}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("Quantiles = %v, want %v", got, want)
		}
	}
	if z := Quantiles(nil, 0.5); z[0] != 0 {
		t.Fatal("empty quantiles should be zero")
	}
}
