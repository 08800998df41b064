package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunCoversAllShards exercises the worker pool under the race detector:
// every shard must run exactly once regardless of worker count.
func TestRunCoversAllShards(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 16} {
		const shards = 97
		hits := make([]int32, shards)
		if err := Run(context.Background(), workers, shards, func(s int) error { hits[s]++; return nil }); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for s, n := range hits {
			if n != 1 {
				t.Fatalf("workers=%d: shard %d ran %d times", workers, s, n)
			}
		}
	}
}

func TestShardBounds(t *testing.T) {
	const n = 2*DefaultShardSize + 123
	if got := Shards(n); got != 3 {
		t.Fatalf("Shards(%d) = %d, want 3", n, got)
	}
	covered := 0
	prevHi := 0
	for s := 0; s < Shards(n); s++ {
		lo, hi := Bounds(n, s)
		if lo != prevHi {
			t.Fatalf("shard %d starts at %d, want %d", s, lo, prevHi)
		}
		covered += hi - lo
		prevHi = hi
	}
	if covered != n {
		t.Fatalf("shards cover %d items, want %d", covered, n)
	}
	if Shards(0) != 0 {
		t.Fatalf("Shards(0) should be 0")
	}
}

// TestRunChunksCoversAllItems asserts every item is visited exactly once at
// any worker count, and that small inputs still split across workers.
func TestRunChunksCoversAllItems(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		for _, n := range []int{0, 1, 7, 100, DefaultShardSize + 5} {
			hits := make([]int32, n)
			var mu sync.Mutex
			chunks := 0
			err := RunChunks(context.Background(), workers, n, func(lo, hi int) error {
				mu.Lock()
				chunks++
				mu.Unlock()
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: item %d visited %d times", workers, n, i, h)
				}
			}
			if n >= workers*4 && chunks < workers {
				t.Fatalf("workers=%d n=%d: only %d chunks — cannot keep all workers busy", workers, n, chunks)
			}
		}
	}
}

// TestRunFirstErrorWins: the first callback to fail decides what Run
// returns, and the shards not yet started are skipped.
func TestRunFirstErrorWins(t *testing.T) {
	// Inline, shard 0 fails first and nothing else starts.
	var ran []int
	err := Run(context.Background(), 1, 1000, func(s int) error {
		ran = append(ran, s)
		return fmt.Errorf("shard %d", s)
	})
	if err == nil || err.Error() != "shard 0" || len(ran) != 1 {
		t.Fatalf("inline: Run returned %v after shards %v, want shard 0's error and no other shard", err, ran)
	}
	// On a pool, the shards claimed while the failure was being recorded run
	// to their end; the hundreds behind them do not start.
	boom := errors.New("boom")
	var started atomic.Int32
	err = Run(context.Background(), 4, 1000, func(s int) error {
		if started.Add(1) == 1 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != boom {
		t.Fatalf("pool: Run returned %v, want the one error", err)
	}
	if n := started.Load(); n == 1000 {
		t.Fatal("pool: every shard started after the first had failed")
	}
	if err := RunChunks(context.Background(), 2, 100, func(lo, hi int) error { return boom }); err != boom {
		t.Fatalf("RunChunks returned %v, want its callback's error", err)
	}
}

// TestRunCancelSkipsTheRest: a cancelled context stops Run between shards and
// is what it returns, its cause when it has one; a context cancelled before
// the call runs nothing.
func TestRunCancelSkipsTheRest(t *testing.T) {
	boom := errors.New("lease expired")
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancelCause(context.Background())
		var ran atomic.Int32
		err := Run(ctx, workers, 1000, func(s int) error {
			if ran.Add(1) == 3 {
				cancel(boom)
			}
			return nil
		})
		if err != boom {
			t.Fatalf("workers=%d: Run returned %v, want the context's cause", workers, err)
		}
		if n := ran.Load(); int(n) >= 3+workers {
			t.Fatalf("workers=%d: %d shards ran, the cancellation came in the third", workers, n)
		}
		err = Run(ctx, workers, 10, func(int) error { t.Error("a shard ran under a dead context"); return nil })
		if err != boom {
			t.Fatalf("workers=%d: Run under a dead context returned %v", workers, err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Run(ctx, 2, 10, func(int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under a cancelled context returned %v", err)
	}
}

// TestRunLeavesNoGoroutine: Run returns once every worker has, whether the
// shards succeeded, failed or were cancelled.
func TestRunLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 20; i++ {
		Run(context.Background(), 8, 64, func(int) error { return nil })
		Run(context.Background(), 8, 64, func(s int) error { return errors.New("boom") })
		RunChunks(ctx, 8, 1000, func(lo, hi int) error {
			if lo > 100 {
				cancel()
			}
			return nil
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before, %d after", before, after)
	}
}
