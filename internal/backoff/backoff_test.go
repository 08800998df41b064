package backoff

import (
	"math"
	"sync"
	"testing"
	"time"
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

// TestDelay: the delay is d = min(max, base·2^(attempt−1)) jittered in
// [d/2, d], at attempts whose doubling overflows int64 as well as at the
// ones that do not.
func TestDelay(t *testing.T) {
	const maxD = time.Duration(math.MaxInt64)
	for _, tc := range []struct {
		base, max time.Duration
		attempt   int
		want      time.Duration // d
	}{
		{time.Nanosecond, maxD, 1, 1},
		{time.Nanosecond, maxD, 2, 2},
		{time.Nanosecond, maxD, 37, 1 << 36},
		{time.Nanosecond, maxD, 63, 1 << 62},
		{time.Nanosecond, maxD, 64, maxD},
		{time.Nanosecond, maxD, 1000, maxD},
		{3, maxD, 63, maxD},
		{time.Nanosecond, time.Nanosecond, 64, 1},
		{100 * time.Millisecond, 2 * time.Second, 1, 100 * time.Millisecond},
		{100 * time.Millisecond, 2 * time.Second, 2, 200 * time.Millisecond},
		{100 * time.Millisecond, 2 * time.Second, 37, 2 * time.Second},
		{100 * time.Millisecond, 2 * time.Second, 63, 2 * time.Second},
		{100 * time.Millisecond, 2 * time.Second, 64, 2 * time.Second},
		{100 * time.Millisecond, 2 * time.Second, 1000, 2 * time.Second},
		{100 * time.Millisecond, 2 * time.Second, 0, 100 * time.Millisecond},
	} {
		var bound int64
		low := Delay(tc.base, tc.max, tc.attempt, func(n int64) int64 { bound = n; return 0 })
		high := Delay(tc.base, tc.max, tc.attempt, func(n int64) int64 { return n - 1 })
		half := tc.want / 2
		if bound != int64(half)+1 || low != half || high != 2*half {
			t.Errorf("Delay(%v, %v, %d): jitter bound %d, range [%v, %v], want %d and [%v, %v]",
				tc.base, tc.max, tc.attempt, bound, low, high, int64(half)+1, half, 2*half)
		}
	}
}
