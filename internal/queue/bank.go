package queue

// Bank is a set of FIFO queues sharing one contiguous node slab. It exists
// for the switch FIFO banks — N x (log2 N + 1) queues per stage — where
// giving every queue its own ring buffer has two costs that grow with N:
// each queue's ring doubles independently (so across millions of queues
// some ring is always hitting a new high-water mark and allocating, and the
// steady state never becomes allocation-free), and empty queues still pin
// a 3-word ring header each.
//
// A Bank stores every queued element as a node in one shared slab linked
// through int32 indices; a queue is just a (head, tail) index pair. The
// slab's free list caps total memory at the bank-wide high-water mark of
// simultaneously queued elements — a single global record that stops
// moving once the workload reaches steady state, after which Push/Pop
// allocate nothing. Freed nodes are reused most-recently-freed-first,
// which keeps the active slab region cache-resident.
type Bank[T any] struct {
	refs  []qref // per-queue head/tail node indices, packed in one word
	nodes []node[T]
	free  int32 // head of the free-node list, -1 when exhausted
	n     int   // total queued elements across all queues
}

// qref packs a queue's head and tail indices into 8 bytes so one cache
// line covers both for every Push/Pop.
type qref struct {
	head int32 // -1 when empty
	tail int32 // -1 when empty
}

type node[T any] struct {
	v    T
	next int32
}

// NewBank returns a bank of the given number of empty queues.
func NewBank[T any](queues int) *Bank[T] {
	b := &Bank[T]{
		refs: make([]qref, queues),
		free: -1,
	}
	for i := range b.refs {
		b.refs[i] = qref{head: -1, tail: -1}
	}
	return b
}

// Queues returns the number of queues in the bank.
func (b *Bank[T]) Queues() int { return len(b.refs) }

// Len returns the total number of queued elements across all queues.
func (b *Bank[T]) Len() int { return b.n }

// Empty reports whether queue q holds no elements.
func (b *Bank[T]) Empty(q int) bool { return b.refs[q].head < 0 }

// Push appends v to the tail of queue q.
func (b *Bank[T]) Push(q int, v T) {
	idx := b.free
	if idx >= 0 {
		b.free = b.nodes[idx].next
	} else {
		idx = int32(len(b.nodes))
		if int(idx) == cap(b.nodes) {
			// Doubling bounds the bytes ever allocated at twice the final
			// slab; append's 1.25x steps re-copy a large slab ~5 times over.
			b.Grow(max(1, 2*cap(b.nodes)))
		}
		b.nodes = b.nodes[:idx+1]
	}
	b.nodes[idx] = node[T]{v: v, next: -1}
	r := &b.refs[q]
	if r.tail >= 0 {
		b.nodes[r.tail].next = idx
	} else {
		r.head = idx
	}
	r.tail = idx
	b.n++
}

// Pop removes and returns the head of queue q. It panics on an empty queue;
// callers check Empty first.
func (b *Bank[T]) Pop(q int) T {
	r := &b.refs[q]
	idx := r.head
	if idx < 0 {
		panic("queue: Pop on empty Bank queue")
	}
	nd := &b.nodes[idx]
	v := nd.v
	r.head = nd.next
	if nd.next < 0 {
		r.tail = -1
	}
	var zero T
	nd.v = zero // release references for GC
	nd.next = b.free
	b.free = idx
	b.n--
	return v
}

// Peek returns the head of queue q without removing it. It panics on an
// empty queue.
func (b *Bank[T]) Peek(q int) T {
	idx := b.refs[q].head
	if idx < 0 {
		panic("queue: Peek on empty Bank queue")
	}
	return b.nodes[idx].v
}

// RemoveFirst unlinks and returns the first element of queue q, in FIFO
// order, for which match reports true; ok is false when none does. Later
// elements keep their order. It is O(position of the match) and exists for
// the frame-atomic center stage, whose output begins the first frame at a
// port that its flow allows to begin, which need not be the head.
func (b *Bank[T]) RemoveFirst(q int, match func(*T) bool) (v T, ok bool) {
	r := &b.refs[q]
	prev := int32(-1)
	for idx := r.head; idx >= 0; prev, idx = idx, b.nodes[idx].next {
		nd := &b.nodes[idx]
		if !match(&nd.v) {
			continue
		}
		if prev >= 0 {
			b.nodes[prev].next = nd.next
		} else {
			r.head = nd.next
		}
		if nd.next < 0 {
			r.tail = prev
		}
		v = nd.v
		var zero T
		nd.v = zero // release references for GC
		nd.next = b.free
		b.free = idx
		b.n--
		return v, true
	}
	return v, false
}

// QueueLen walks queue q and returns its length. It is O(len) and exists
// for tests and diagnostics; hot paths track occupancy via bitmaps.
func (b *Bank[T]) QueueLen(q int) int {
	count := 0
	for idx := b.refs[q].head; idx >= 0; idx = b.nodes[idx].next {
		count++
	}
	return count
}

// Grow ensures the slab can hold at least capacity queued elements in total
// without further allocation.
func (b *Bank[T]) Grow(capacity int) {
	if capacity <= cap(b.nodes) {
		return
	}
	next := make([]node[T], len(b.nodes), capacity)
	copy(next, b.nodes)
	b.nodes = next
}

// Each calls f on every element of queue q, head first. Like QueueLen it
// exists for tests and diagnostics.
func (b *Bank[T]) Each(q int, f func(T)) {
	for idx := b.refs[q].head; idx >= 0; idx = b.nodes[idx].next {
		f(b.nodes[idx].v)
	}
}
