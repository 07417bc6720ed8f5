package queue

import (
	"math/rand"
	"testing"
)

// scanNext is the walk NextSet replaces: try start, start+1, ... cyclically
// over n bits.
func scanNext(bm []uint64, start, n int) int {
	for k := 0; k < n; k++ {
		j := (start + k) % n
		if bm[j>>6]&(1<<(uint(j)&63)) != 0 {
			return j
		}
	}
	return -1
}

func TestNextSetTable(t *testing.T) {
	for _, n := range []int{1, 3, 63, 64, 65, 128, 130} {
		empty := make([]uint64, BitWords(n))
		full := make([]uint64, BitWords(n))
		for j := 0; j < n; j++ {
			SetBit(full, j)
		}
		starts := []int{0, n - 1}
		for _, s := range []int{63, 64} {
			if s < n {
				starts = append(starts, s)
			}
		}
		for _, start := range starts {
			if got := NextSet(empty, start); got != -1 {
				t.Errorf("n=%d start=%d empty: got %d, want -1", n, start, got)
			}
			if got := NextSet(full, start); got != start {
				t.Errorf("n=%d start=%d all ones: got %d, want %d", n, start, got, start)
			}
			// One bit set, at every position: found from any start, whether
			// it lies ahead of start, behind it (wrap) or in the same word.
			for j := 0; j < n; j++ {
				one := make([]uint64, BitWords(n))
				SetBit(one, j)
				if got := NextSet(one, start); got != j {
					t.Errorf("n=%d start=%d only bit %d: got %d", n, start, j, got)
				}
			}
			// All but start set: the answer is the cyclic successor.
			if n > 1 {
				ClearBit(full, start)
				if got, want := NextSet(full, start), (start+1)%n; got != want {
					t.Errorf("n=%d start=%d all but start: got %d, want %d", n, start, got, want)
				}
				SetBit(full, start)
			}
		}
	}
}

func TestNextSetMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{3, 8, 64, 65, 130} {
		bm := make([]uint64, BitWords(n))
		for trial := 0; trial < 2000; trial++ {
			clear(bm)
			for k := rng.Intn(4); k > 0; k-- {
				SetBit(bm, rng.Intn(n))
			}
			start := rng.Intn(n)
			if got, want := NextSet(bm, start), scanNext(bm, start, n); got != want {
				t.Fatalf("n=%d start=%d bm=%x: got %d, want %d", n, start, bm, got, want)
			}
		}
	}
}
