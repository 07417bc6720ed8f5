package core

import (
	"math/rand"
	"testing"

	"sprinklers/internal/traffic"
)

// TestMidQueuesBounded: at admissible load the center-stage queues must
// stay bounded — the operational consequence of the Sec. 4 load-balance
// guarantee. The test also exercises the per-(port, output) queue-length
// accessor against the stage's aggregate backlog.
func TestMidQueuesBounded(t *testing.T) {
	const n = 16
	m := traffic.Diagonal(n, 0.85)
	sw := newSwitch(t, n, m, GatedLSF, 121)
	src := traffic.NewBernoulli(m, rand.New(rand.NewSource(122)))
	for tt := 0; tt < 100000; tt++ {
		src.Next(int64ToSlot(tt), sw.Arrive)
		sw.Step(nil)
	}
	total := 0
	maxQ := 0
	for mm := 0; mm < n; mm++ {
		for j := 0; j < n; j++ {
			l := sw.mid.queueLen(mm, j)
			total += l
			if l > maxQ {
				maxQ = l
			}
		}
	}
	if total != sw.mid.buffered {
		t.Fatalf("queue lengths sum to %d, stage says %d", total, sw.mid.buffered)
	}
	// A single (port, output) queue is served once per N slots at arrival
	// rate below 1/N; its stationary length is small. Hundreds would mean
	// an overloaded queue.
	if maxQ > 100 {
		t.Fatalf("center-stage queue grew to %d packets; load imbalance", maxQ)
	}
}

// TestMidQueuesDrainAfterStop: once arrivals cease, the switch must empty
// (no packet can be stranded mid-switch; only ready queues may retain
// partial stripes).
func TestMidQueuesDrainAfterStop(t *testing.T) {
	const n = 16
	m := traffic.Uniform(n, 0.7)
	sw := newSwitch(t, n, m, GatedLSF, 123)
	src := traffic.NewBernoulli(m, rand.New(rand.NewSource(124)))
	for tt := 0; tt < 30000; tt++ {
		src.Next(int64ToSlot(tt), sw.Arrive)
		sw.Step(nil)
	}
	// Drain: no new arrivals for plenty of slots.
	for k := 0; k < 200000; k++ {
		sw.Step(nil)
	}
	if sw.mid.buffered != 0 {
		t.Fatalf("%d packets stranded at the center stage", sw.mid.buffered)
	}
	// Everything left must be partial stripes in ready queues.
	for i := 0; i < n; i++ {
		in := sw.inputs[i]
		ready := 0
		for _, v := range in.voqs {
			ready += v.ready
			if v.ready >= v.size {
				t.Fatalf("full stripe sitting unformed in ready queue (%d >= %d)",
					v.ready, v.size)
			}
			if v.q.Len() != v.ready {
				t.Fatalf("VOQ queue holds %d records for %d ready packets", v.q.Len(), v.ready)
			}
		}
		if in.buffered != ready {
			t.Fatalf("input %d: %d buffered but only %d in ready queues — stripes stranded",
				i, in.buffered, ready)
		}
	}
}
