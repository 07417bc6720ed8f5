// Package queue provides the queueing primitives used throughout the switch
// implementations: an amortized O(1) ring-buffer FIFO, the
// N x (log2 N + 1) stripe-FIFO bank with per-row bitmaps described in
// Sec. 3.4.2 of the paper, the chunked record FIFO on a per-input chunk pool
// that is every architecture's per-(input, output) VOQ, and multi-word bit
// sets with a cyclic find-first-set for round-robin queue selection.
package queue

// FIFO is a growable ring-buffer first-in first-out queue. The zero value is
// an empty queue ready for use. All operations are amortized O(1) and the
// buffer is reused across Push/Pop cycles, so steady-state operation does not
// allocate.
//
// The buffer capacity is always a power of two so every index wrap is a
// single AND with len(buf)-1 instead of a division; this queue sits on the
// per-slot hot path of every switch, where the modulo cost is measurable.
type FIFO[T any] struct {
	buf  []T // len(buf) is always 0 or a power of two
	head int
	n    int
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// Empty reports whether the queue holds no elements.
func (q *FIFO[T]) Empty() bool { return q.n == 0 }

// Push appends v to the tail of the queue.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow(q.n + 1)
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the head of the queue. It panics on an empty
// queue; callers check Empty or Len first.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("queue: Pop on empty FIFO")
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release references for GC
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Peek returns the head of the queue without removing it. It panics on an
// empty queue.
func (q *FIFO[T]) Peek() T {
	if q.n == 0 {
		panic("queue: Peek on empty FIFO")
	}
	return q.buf[q.head]
}

// grow reallocates the ring to a power-of-two capacity of at least min
// (and at least double the current capacity, preserving amortized O(1)).
func (q *FIFO[T]) grow(min int) {
	capacity := len(q.buf) * 2
	if capacity == 0 {
		capacity = 8
	}
	for capacity < min {
		capacity *= 2
	}
	next := make([]T, capacity)
	if q.n > 0 {
		first := q.n
		if q.head+first > len(q.buf) {
			first = len(q.buf) - q.head
		}
		copy(next, q.buf[q.head:q.head+first])
		copy(next[first:], q.buf[:q.n-first])
	}
	q.buf = next
	q.head = 0
}
