package backoff

import (
	"sync"
	"testing"
)

// TestJitterStaysInRange: the contract is a value in [0, n), at the smallest
// n and at one that needs all 63 bits.
func TestJitterStaysInRange(t *testing.T) {
	jitter := NewJitter()
	for _, n := range []int64{1, 2, 1000, 1<<62 + 12345} {
		for i := 0; i < 2000; i++ {
			if v := jitter(n); v < 0 || v >= n {
				t.Fatalf("jitter(%d) = %d, outside [0, %d)", n, v, n)
			}
		}
	}
}

// TestJitterSpreads: a jitter that returned one value would line retrying
// clients up again; 200 draws from a million must not all agree, on either
// of two independently seeded sources, and the two must not replay each
// other.
func TestJitterSpreads(t *testing.T) {
	const n, draws = 1_000_000, 200
	a, b := NewJitter(), NewJitter()
	seenA, seenB := map[int64]bool{}, map[int64]bool{}
	same := 0
	for i := 0; i < draws; i++ {
		va, vb := a(n), b(n)
		seenA[va], seenB[vb] = true, true
		if va == vb {
			same++
		}
	}
	if len(seenA) < draws/2 || len(seenB) < draws/2 {
		t.Errorf("%d draws gave %d and %d distinct values", draws, len(seenA), len(seenB))
	}
	if same > draws/2 {
		t.Errorf("two sources agreed on %d of %d draws: they share a seed", same, draws)
	}
}

// TestJitterIsSafeForConcurrentUse is for -race: one Jitter, many callers.
func TestJitterIsSafeForConcurrentUse(t *testing.T) {
	jitter := NewJitter()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if v := jitter(10); v < 0 || v >= 10 {
					t.Errorf("jitter(10) = %d", v)
					return
				}
			}
		}()
	}
	wg.Wait()
}
