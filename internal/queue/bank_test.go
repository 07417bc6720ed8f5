package queue

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestBankBasics(t *testing.T) {
	b := NewBank[int](3)
	if b.Queues() != 3 || b.Len() != 0 {
		t.Fatal("fresh bank not empty")
	}
	for q := 0; q < 3; q++ {
		if !b.Empty(q) {
			t.Fatalf("queue %d not empty", q)
		}
	}
	// Interleave pushes across queues; FIFO order must hold per queue.
	for i := 0; i < 30; i++ {
		b.Push(i%3, i)
	}
	if b.Len() != 30 {
		t.Fatalf("Len = %d", b.Len())
	}
	if b.Peek(1) != 1 {
		t.Fatalf("Peek(1) = %d", b.Peek(1))
	}
	for q := 0; q < 3; q++ {
		if b.QueueLen(q) != 10 {
			t.Fatalf("QueueLen(%d) = %d", q, b.QueueLen(q))
		}
		for i := q; i < 30; i += 3 {
			if got := b.Pop(q); got != i {
				t.Fatalf("queue %d: Pop = %d, want %d", q, got, i)
			}
		}
		if !b.Empty(q) {
			t.Fatalf("queue %d not drained", q)
		}
	}
}

// TestBankModel drives a bank and a per-queue slice model with the same
// random operation sequence and requires identical observable behavior.
func TestBankModel(t *testing.T) {
	const queues = 5
	f := func(ops []uint16) bool {
		b := NewBank[uint16](queues)
		model := make([][]uint16, queues)
		for _, op := range ops {
			q := int(op) % queues
			if op%3 == 0 && len(model[q]) > 0 {
				if b.Pop(q) != model[q][0] {
					return false
				}
				model[q] = model[q][1:]
			} else {
				b.Push(q, op)
				model[q] = append(model[q], op)
			}
			total := 0
			for q := range model {
				total += len(model[q])
				if b.Empty(q) != (len(model[q]) == 0) {
					return false
				}
				if len(model[q]) > 0 && b.Peek(q) != model[q][0] {
					return false
				}
				if b.QueueLen(q) != len(model[q]) {
					return false
				}
				var walked []uint16
				b.Each(q, func(v uint16) { walked = append(walked, v) })
				if !slices.Equal(walked, model[q]) {
					return false
				}
			}
			if b.Len() != total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestBankRemoveFirstModel drives RemoveFirst against a slice-of-slices
// oracle through head, middle and tail hits and a miss, then checks what a
// removal must leave intact: Push after a tail removal appends behind the
// new tail, the freed node is reused, and Len follows.
func TestBankRemoveFirstModel(t *testing.T) {
	const queues = 3
	b := NewBank[int](queues)
	model := make([][]int, queues)
	push := func(q, v int) {
		b.Push(q, v)
		model[q] = append(model[q], v)
	}
	remove := func(q, v int) {
		t.Helper()
		want, wantOK := 0, false
		for i, x := range model[q] {
			if x == v {
				want, wantOK = x, true
				model[q] = append(model[q][:i:i], model[q][i+1:]...)
				break
			}
		}
		got, ok := b.RemoveFirst(q, func(x *int) bool { return *x == v })
		if got != want || ok != wantOK {
			t.Fatalf("RemoveFirst(%d, ==%d) = %d, %v; want %d, %v", q, v, got, ok, want, wantOK)
		}
	}
	check := func() {
		t.Helper()
		total := 0
		for q := range model {
			total += len(model[q])
			if b.QueueLen(q) != len(model[q]) || b.Empty(q) != (len(model[q]) == 0) {
				t.Fatalf("queue %d: QueueLen %d Empty %v, model %v", q, b.QueueLen(q), b.Empty(q), model[q])
			}
		}
		if b.Len() != total {
			t.Fatalf("Len = %d, want %d", b.Len(), total)
		}
	}
	for v := 0; v < 15; v++ {
		push(v%queues, v) // queue 1 holds 1 4 7 10 13
	}
	for _, v := range []int{1, 7, 13, 99} { // head, middle, tail, miss
		remove(1, v)
		check()
	}
	push(1, 16) // behind the new tail, on the node the tail removal freed
	slab := len(b.nodes)
	push(1, 19)
	push(1, 22)
	if len(b.nodes) != slab {
		t.Fatalf("slab grew to %d nodes with %d on the free list", len(b.nodes), 2)
	}
	check()
	remove(1, 4)
	remove(1, 4) // already gone
	remove(0, 0)
	check()
	// The survivors leave in FIFO order, and a queue emptied by
	// RemoveFirst alone accepts pushes again.
	for q := range model {
		for _, want := range model[q] {
			if got := b.Pop(q); got != want {
				t.Fatalf("queue %d: Pop = %d, want %d", q, got, want)
			}
		}
		model[q] = nil
	}
	push(2, 7)
	remove(2, 7)
	push(2, 8)
	check()
	if b.Pop(2) != 8 || b.Len() != 0 {
		t.Fatal("queue emptied by RemoveFirst did not restart cleanly")
	}
}

// TestBankNodeReuse: after draining, the slab must recycle nodes rather
// than grow — steady-state churn at or below the high-water mark is
// allocation-free.
func TestBankNodeReuse(t *testing.T) {
	b := NewBank[int](4)
	for i := 0; i < 64; i++ {
		b.Push(i%4, i)
	}
	for q := 0; q < 4; q++ {
		for !b.Empty(q) {
			b.Pop(q)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 64; i++ {
			b.Push(i%4, i)
		}
		for q := 0; q < 4; q++ {
			for !b.Empty(q) {
				b.Pop(q)
			}
		}
	}); allocs != 0 {
		t.Fatalf("churn below high-water mark allocated %v times per run", allocs)
	}
}

// TestBankReleasesReferences: popped nodes must drop their values so the
// slab does not pin heap objects.
func TestBankReleasesReferences(t *testing.T) {
	b := NewBank[*int](1)
	b.Push(0, new(int))
	b.Pop(0)
	b.Push(0, nil)
	if b.Peek(0) != nil {
		t.Fatal("slab node not zeroed on Pop")
	}
}

func TestBankGrow(t *testing.T) {
	b := NewBank[int](2)
	b.Push(0, 1)
	b.Grow(128)
	if b.Pop(0) != 1 {
		t.Fatal("Grow lost queued element")
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 100; i++ {
			b.Push(i%2, i)
		}
		for q := 0; q < 2; q++ {
			for !b.Empty(q) {
				b.Pop(q)
			}
		}
	}); allocs != 0 {
		t.Fatalf("pushes within Grow capacity allocated %v times", allocs)
	}
}

// TestBankGrowthDoubles pushes 1<<16 elements through a bank whose free
// list is in use the whole way (bursts of pops between the pushes, so every
// growth happens with previously freed and reused node indices live in the
// queues), and checks order and contents against the push sequence and that
// the slab cost at most twice its final size in allocated bytes.
func TestBankGrowthDoubles(t *testing.T) {
	const queues, total = 4, 1 << 16
	b := NewBank[int](queues)
	var next [queues]int // next value each queue must pop
	for q := range next {
		next[q] = q
	}
	popCheck := func(q int) {
		if got := b.Pop(q); got != next[q] {
			t.Fatalf("queue %d: Pop = %d, want %d", q, got, next[q])
		}
		next[q] += queues
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < total; i++ {
		b.Push(i%queues, i)
		if i%1000 == 999 {
			for k := 0; k < 300; k++ {
				popCheck(k % queues)
			}
		}
	}
	runtime.ReadMemStats(&after)
	slab := uint64(cap(b.nodes)) * uint64(unsafe.Sizeof(b.nodes[0]))
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*slab {
		t.Fatalf("growing to a %d-byte slab allocated %d bytes, want at most %d", slab, got, 2*slab)
	}
	if want := total - total/1000*300; b.Len() != want {
		t.Fatalf("Len = %d, want %d", b.Len(), want)
	}
	for q := 0; q < queues; q++ {
		for !b.Empty(q) {
			popCheck(q)
		}
		if next[q] != total+q {
			t.Fatalf("queue %d drained up to %d, want %d", q, next[q]-queues, total+q-queues)
		}
	}
}

func TestBankPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Pop empty":  func() { NewBank[int](1).Pop(0) },
		"Peek empty": func() { NewBank[int](1).Peek(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
