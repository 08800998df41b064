// Package parallel provides the deterministic sharded worker pool shared by
// the generation pipeline, the constraint resolver, and the materializer.
//
// The invariant every caller relies on: shard boundaries are a function of
// the item count only — never of the worker count — and any randomness is
// derived from the shard index, so results are identical at every
// parallelism level and the worker pool only changes wall-clock time.
package parallel

import (
	"context"
	"sync"
	"sync/atomic"
)

// DefaultShardSize is the fixed number of items per shard used by the
// sharded phases (metadata assignment, pool sampling).
const DefaultShardSize = 4096

// Shards returns the shard count for n items under DefaultShardSize.
func Shards(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + DefaultShardSize - 1) / DefaultShardSize
}

// Bounds returns the half-open item range [lo, hi) of shard s for n items.
func Bounds(n, s int) (lo, hi int) {
	lo = s * DefaultShardSize
	hi = lo + DefaultShardSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// Run executes fn(shard) for every shard index in [0, shards) on up to
// workers goroutines and returns the first error: once a callback fails, or
// ctx is cancelled, the shards not yet started are skipped, and that error
// (or the context's cause) is returned when the started ones have finished —
// no goroutine outlives the call. Shards are claimed through an atomic
// counter, so the set of shards each worker executes is scheduling-dependent
// — fn must derive any randomness it needs from the shard index, not from
// worker identity. With workers <= 1 the shards run inline in order, which is
// also the degenerate deterministic reference path.
func Run(ctx context.Context, workers, shards int, fn func(shard int) error) error {
	ctx, stop := context.WithCancelCause(ctx)
	defer stop(nil)
	run := func(s int) {
		if ctx.Err() != nil {
			return
		}
		if err := fn(s); err != nil {
			stop(err)
		}
	}
	if workers > shards {
		workers = shards
	}
	if workers <= 1 {
		for s := 0; s < shards; s++ {
			run(s)
		}
		return context.Cause(ctx)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= shards {
					return
				}
				run(s)
			}
		}()
	}
	wg.Wait()
	return context.Cause(ctx)
}

// RunChunks executes fn(lo, hi) over contiguous chunks of n items on up to
// workers goroutines, sizing chunks so there are ~4 per worker (clamped to
// [1, DefaultShardSize] items each), with Run's error and cancellation rule.
// Unlike Shards/Bounds — whose fixed boundaries exist so per-shard RNG
// streams stay put — chunk boundaries here depend on the worker count, so
// RunChunks is only for loops whose work is keyed per item (e.g. per-file
// content streams), never per chunk.
func RunChunks(ctx context.Context, workers, n int, fn func(lo, hi int) error) error {
	if workers < 1 {
		workers = 1
	}
	chunk := (n + workers*4 - 1) / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	if chunk > DefaultShardSize {
		chunk = DefaultShardSize
	}
	chunks := (n + chunk - 1) / chunk
	return Run(ctx, workers, chunks, func(s int) error {
		lo := s * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		return fn(lo, hi)
	})
}
