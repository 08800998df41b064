// Package backoff provides the retry delay, and the jitter source behind
// it, for the fleet scheduler and the serve client.
//
// Backoff jitter wants unpredictability across processes (decorrelating a
// fleet of retrying clients), not reproducibility — but it must not come
// from the process-global math/rand source: global draws contend on one
// lock under load, global reseeding in one test perturbs every other, and
// the determinism contract (internal/analysis, detclock) bans global-source
// draws module-wide. Callers hold an injected jitter function instead; the
// default from NewJitter is a private, mutex-guarded source seeded once
// from crypto/rand.
package backoff

import (
	crand "crypto/rand"
	"encoding/binary"
	mrand "math/rand"
	"sync"
	"time"
)

// Jitter returns a uniform value in [0, n); n must be > 0. Implementations
// must be safe for concurrent use.
type Jitter func(n int64) int64

// NewJitter returns a concurrency-safe Jitter over a private source seeded
// from crypto/rand, falling back to wall-clock nanoseconds if the system
// entropy pool is unreadable (jitter quality degrades; correctness does
// not depend on it).
func NewJitter() Jitter {
	var seed int64
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		seed = int64(binary.LittleEndian.Uint64(b[:]))
	} else {
		seed = time.Now().UnixNano()
	}
	src := mrand.New(mrand.NewSource(seed))
	var mu sync.Mutex
	return func(n int64) int64 {
		mu.Lock()
		defer mu.Unlock()
		return src.Int63n(n)
	}
}

// Delay returns the jittered delay before retry number attempt (1 for the
// first): uniform in [d/2, d], where d = min(max, base·2^(attempt−1)). The
// doubling stops at max, so no attempt count overflows it. The bottom half
// is never jittered away: a fleet of retrying clients is decorrelated
// without any of them retrying sooner than half the nominal delay.
func Delay(base, max time.Duration, attempt int, j Jitter) time.Duration {
	d := base
	for i := 1; i < attempt && d > 0 && d < max; i++ {
		if d > max/2 {
			d = max
			break
		}
		d *= 2
	}
	d = min(d, max)
	if d < 0 {
		d = 0
	}
	half := d / 2
	return half + time.Duration(j(int64(half)+1))
}
