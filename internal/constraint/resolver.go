// Package constraint implements the multiple-constraint resolution algorithm
// of §3.4 of the paper. Given a target number of files N, a target sum S
// (the desired file-system used space), a file-size distribution D3 and an
// error tolerance β, it produces a set of exactly N samples whose sum is
// within β·S of S while still following D3 (verified with a two-sample
// Kolmogorov-Smirnov test).
//
// The algorithm is an approximation to a constrained variant of the
// NP-complete Subset Sum Problem, adapted from Przydatek's O(n log n)
// randomized greedy + local-improvement heuristic:
//
//  1. Draw N samples from D3. If they already satisfy the sum constraint,
//     done.
//  2. Otherwise oversample additional values one at a time (up to λ·N
//     extras). After each oversample, search for a subset of exactly N
//     elements whose sum is within tolerance, using a greedy fill followed by
//     local improvement (swap elements in/out to shrink the error).
//  3. When a candidate subset meets the sum tolerance, run a two-sample K-S
//     test against the full sample to confirm the distribution is preserved.
//  4. If the oversampling budget is exhausted, discard the sample set and
//     start over (up to MaxRestarts).
//
// Step 2 runs the subset search only when the target lies between the sums
// of the N smallest and the N largest pool elements (boundsTracker), and
// builds that tracker only once the sum of the pool's positive values
// (reachBound) no longer rules the target out from below. Neither check
// draws from the RNG or alters what a step decides: a target no sample
// reaches costs an attempt its draws and little else, and every Result is
// what the search alone would return. The package alone draws the pool and
// tests the tolerance; a caller may only say where it is kept (PoolStorage).
package constraint

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"impressions/internal/parallel"
	"impressions/internal/stats"
	"impressions/internal/stats/gof"
)

// Problem describes one multiple-constraint resolution instance.
type Problem struct {
	// N is the required number of samples (files).
	N int
	// TargetSum is the desired sum of all samples (file-system used space).
	TargetSum float64
	// Dist is the distribution file sizes are drawn from (D3 in the paper).
	Dist stats.Distribution
	// Beta is the maximum allowed relative error between the achieved and
	// desired sums. Defaults to 0.05 (the paper's 5% error line).
	Beta float64
	// Lambda is the maximum oversampling factor α/N. Defaults to 1.0; the
	// paper observes λ ≤ 1 suffices in almost all cases.
	Lambda float64
	// Alpha is the significance level for the K-S distribution check.
	// Defaults to 0.05.
	Alpha float64
	// MaxRestarts bounds how many times the whole sample set may be discarded
	// and redrawn. Defaults to 10.
	MaxRestarts int
	// SkipKS disables the goodness-of-fit check (used by ablation benches).
	SkipKS bool
	// SkipLocalImprovement disables the subset-sum local-improvement phase so
	// only plain oversampling remains (used by ablation benches).
	SkipLocalImprovement bool
}

// Result reports the outcome of a resolution.
type Result struct {
	// Values are the N resolved samples.
	Values []float64
	// Sum is the achieved sum of Values.
	Sum float64
	// InitialBeta is the relative error of the very first N-sample draw.
	InitialBeta float64
	// FinalBeta is the achieved relative error |Sum-TargetSum|/TargetSum.
	FinalBeta float64
	// Oversamples is the number of extra samples drawn (α).
	Oversamples int
	// OversampleRate is α/N.
	OversampleRate float64
	// Restarts is how many times the sample set was discarded.
	Restarts int
	// KS is the two-sample K-S comparison between the resolved subset and the
	// full oversampled pool (zero value if SkipKS).
	KS gof.KSResult
	// Converged is true if all constraints were met.
	Converged bool
	// Trace, if recording was enabled, holds the pool sum after each
	// oversample; it reproduces the convergence lines of Figure 3(a).
	Trace []float64
}

// ErrNoDistribution is returned when the problem has a nil distribution.
var ErrNoDistribution = errors.New("constraint: problem needs a distribution")

// Resolver resolves constraint problems. The zero value is not usable; use
// NewResolver.
type Resolver struct {
	rng        *stats.RNG
	recordPath bool
	workers    int
	storage    PoolStorage
}

// NewResolver returns a resolver that draws samples from rng.
func NewResolver(rng *stats.RNG) *Resolver { return &Resolver{rng: rng} }

// RecordConvergence makes subsequent Resolve calls record the subset sum
// after every oversampling step (Figure 3(a) traces).
func (r *Resolver) RecordConvergence(on bool) { r.recordPath = on }

// SetParallelism sets how many workers draw the initial sample pool
// (values below 2 keep the draw on the calling goroutine). The pool is
// always drawn shard-by-shard from RNG streams keyed by the shard index, so
// the resolved sizes are identical at every parallelism level; the
// distribution must tolerate concurrent Sample calls with independent RNGs,
// which every stats distribution does (they are immutable values).
func (r *Resolver) SetParallelism(workers int) { r.workers = workers }

// PoolStorage keeps a pool of N draws somewhere other than the resolver's
// heap: core hands Resolve its file-size column, which may be a temp file.
type PoolStorage interface {
	// Draw has fill draw shard s of the pool (parallel.Bounds of N) and keeps
	// what it drew. Distinct shards are drawn concurrently.
	Draw(s int, fill func(shard []float64)) error
	// Scan visits the pool's shards in index order.
	Scan(visit func(shard []float64)) error
}

// SetPoolStorage makes Resolve draw each attempt's pool into s. When a draw
// already meets the sum constraint, Resolve returns without having held it:
// the values are in s, Result.Values and Result.KS stay zero. Otherwise it
// reads the pool back whole and carries on as it does on its own heap.
func (r *Resolver) SetPoolStorage(s PoolStorage) { r.storage = s }

// heapPool is the storage of a pool the resolver keeps itself.
type heapPool []float64

func (h heapPool) Draw(s int, fill func([]float64)) error {
	lo, hi := parallel.Bounds(len(h), s)
	fill(h[lo:hi])
	return nil
}

func (h heapPool) Scan(visit func([]float64)) error {
	visit(h)
	return nil
}

// samplePool draws an n-element pool into store and returns its sum, taken
// left to right. The shard base is seeded by one draw from the resolver's
// main stream, so every attempt — across restarts and successive Resolve
// calls — gets a genuinely fresh pool (the restart mechanism exists to
// replace an unlucky initial draw). Shard s then comes from the derived
// stream SplitN(s) of that base, so concurrent workers never contend and the
// result is independent of scheduling.
func (r *Resolver) samplePool(d stats.Distribution, n int, store PoolStorage) (float64, error) {
	base := stats.NewRNG(int64(r.rng.Uint64())).SplitStream("pool")
	err := parallel.Run(context.Background(), r.workers, parallel.Shards(n), func(s int) error {
		return store.Draw(s, func(shard []float64) {
			srng := base.SplitN(uint64(s))
			for i := range shard {
				shard[i] = d.Sample(srng)
			}
		})
	})
	if err != nil {
		return 0, err
	}
	sum := 0.0
	err = store.Scan(func(shard []float64) {
		for _, v := range shard {
			sum += v
		}
	})
	return sum, err
}

// Resolve solves the problem, returning the resolved samples and convergence
// statistics.
func (r *Resolver) Resolve(p Problem) (Result, error) {
	if p.Dist == nil {
		return Result{}, ErrNoDistribution
	}
	if p.N <= 0 {
		return Result{}, fmt.Errorf("constraint: invalid sample count %d", p.N)
	}
	if p.TargetSum <= 0 {
		return Result{}, fmt.Errorf("constraint: invalid target sum %g", p.TargetSum)
	}
	applyDefaults(&p)

	var res Result
	wideMisses := 0
	for restart := 0; restart <= p.MaxRestarts; restart++ {
		res.Restarts = restart
		ok, gapFrac, err := r.attempt(p, &res)
		if err != nil {
			return Result{}, err
		}
		if ok {
			res.Converged = true
			return res, nil
		}
		// If the target never entered the achievable window [minSum, maxSum]
		// during two independent attempts and both missed it by a wide
		// margin, the gap is systematic — the target is beyond what (1+λ)·N
		// draws of this distribution realize — and further redraws of the
		// same size will be in the same position. Restarting only helps
		// unlucky attempts (stalled subset searches, near-miss feasibility),
		// so bail out instead of burning the remaining restarts: at
		// production image scale those futile restarts used to dominate
		// generation time. Requiring two consecutive wide misses keeps one
		// genuine redraw for heavy-tailed distributions whose achievable
		// maximum swings with the largest single draw.
		if gapFrac > futilityGapFrac {
			wideMisses++
			if wideMisses >= 2 {
				break
			}
		} else {
			wideMisses = 0
		}
	}
	res.Converged = false
	return res, nil
}

// futilityGapFrac is the relative distance between the target sum and the
// closest achievable subset sum beyond which an attempt counts as a wide
// miss; two consecutive wide misses classify the problem as systematically
// infeasible rather than unlucky.
const futilityGapFrac = 0.2

func applyDefaults(p *Problem) {
	if p.Beta <= 0 {
		p.Beta = 0.05
	}
	if p.Lambda <= 0 {
		p.Lambda = 1.0
	}
	if p.Alpha <= 0 {
		p.Alpha = 0.05
	}
	if p.MaxRestarts <= 0 {
		p.MaxRestarts = 10
	}
}

// attempt runs one full draw + oversample loop. It fills res with the latest
// state and returns whether it converged, plus the attempt's final relative
// feasibility gap: 0 when some oversampling step was sum-feasible (the
// target sat inside the achievable [minSum, maxSum] window), otherwise how
// far outside the window the target remained as a fraction of the target —
// or, when the reach bound alone already puts that past futilityGapFrac, the
// bound's smaller figure, which classifies the attempt the same way.
func (r *Resolver) attempt(p Problem, res *Result) (converged bool, gapFrac float64, err error) {
	var pool []float64 // nil while the caller's storage holds the draw
	store := r.storage
	if store == nil {
		pool = make([]float64, p.N)
		store = heapPool(pool)
	}
	initialSum, err := r.samplePool(p.Dist, p.N, store)
	if err != nil {
		return false, 0, err
	}
	tolerance := p.Beta * p.TargetSum
	maxOversamples := int(p.Lambda * float64(p.N))

	if res.InitialBeta == 0 {
		res.InitialBeta = math.Abs(initialSum-p.TargetSum) / p.TargetSum
	}
	if r.recordPath {
		res.Trace = append(res.Trace, initialSum)
	}

	// Fast path: the raw sample already satisfies the constraint.
	if math.Abs(initialSum-p.TargetSum) <= tolerance {
		res.Values = pool
		res.Sum = initialSum
		res.FinalBeta = math.Abs(initialSum-p.TargetSum) / p.TargetSum
		res.Oversamples = 0
		res.OversampleRate = 0
		if !p.SkipKS && pool != nil {
			res.KS, _ = gof.KSTwoSample(pool, pool, p.Alpha)
		}
		return true, 0, nil
	}
	if pool == nil {
		// The documented O(N) corner of caller-supplied storage.
		pool = make([]float64, 0, p.N)
		if err := store.Scan(func(shard []float64) { pool = append(pool, shard...) }); err != nil {
			return false, 0, err
		}
	}

	// Feasibility (is there any N-subset whose sum can fall inside the
	// tolerance band?) is checked cheaply before running the expensive subset
	// search: when the target is far from the expected sum, most oversampling
	// steps are provably infeasible and are skipped. The bounds — the sums of
	// the N smallest and N largest pool elements — are maintained by a pair
	// of bounded heaps in O(log N) per oversample; recomputing them from
	// scratch made the whole resolution O(N²) and dominated image-generation
	// time at production scale.
	//
	// The tracker (a sort and two N-element heaps) is itself only built once
	// the cheaper reach bound stops excluding the window from below: until
	// then a step is a draw and two additions. A spec with no size to
	// resolve (the target is N × a Pareto-inflated mean the sample reaches a
	// fifth of) never builds it. A convergence trace records the tracker's
	// bounds at every step, so recording builds it up front.
	var bounds *boundsTracker
	if r.recordPath {
		bounds = newBoundsTracker(pool, p.N)
	}
	reach := newReachBound(pool)
	lower := p.TargetSum - tolerance

	// Abort the attempt early when repeated subset searches stop making
	// progress; the paper's prescription for such extreme targets is to drop
	// the sample set and start over.
	const stallLimit = 50
	bestErr := math.Inf(1)
	stalled := 0
	feasible := false

	for extra := 1; extra <= maxOversamples; extra++ {
		sample := p.Dist.Sample(r.rng)
		pool = append(pool, sample)
		if bounds != nil {
			bounds.add(sample)
		} else {
			reach.add(sample)
			if reach.max() < lower {
				continue // maxSum <= reach.max(): infeasible, as the tracker would find
			}
			bounds = replayBoundsTracker(pool, p.N)
		}

		if bounds.minSum > p.TargetSum+tolerance || bounds.maxSum < lower {
			if r.recordPath {
				res.Trace = append(res.Trace, nearestBound(bounds.minSum, bounds.maxSum, p.TargetSum))
			}
			continue
		}
		feasible = true

		subset, sum, found := r.selectSubset(pool, p)
		if r.recordPath {
			// Record the best-effort sum so convergence plots show motion.
			res.Trace = append(res.Trace, sum)
		}
		if !found {
			err := math.Abs(sum - p.TargetSum)
			if err < bestErr*0.99 {
				bestErr = err
				stalled = 0
			} else {
				stalled++
				if stalled >= stallLimit {
					break
				}
			}
			continue
		}
		// Check the distribution is preserved.
		if !p.SkipKS {
			ks, err := gof.KSTwoSample(subset, pool, p.Alpha)
			if err != nil || !ks.Passed {
				// A sum-feasible subset that distorts the distribution counts
				// as a stall too; targets far from the expected sum can only
				// be hit by biased subsets, and grinding on them is futile.
				stalled++
				if stalled >= stallLimit {
					break
				}
				continue
			}
			res.KS = ks
		}
		res.Values = subset
		res.Sum = sum
		res.FinalBeta = math.Abs(sum-p.TargetSum) / p.TargetSum
		res.Oversamples = extra
		res.OversampleRate = float64(extra) / float64(p.N)
		return true, 0, nil
	}
	res.Oversamples = maxOversamples
	res.OversampleRate = p.Lambda
	if feasible {
		return false, 0, nil
	}
	if bounds == nil {
		// The window's lower edge stayed above anything the pool reaches. If
		// even that bound is a wide miss, the exact gap (no smaller) is too.
		if gapFrac := (lower - reach.max()) / p.TargetSum; gapFrac > futilityGapFrac {
			return false, gapFrac, nil
		}
		bounds = replayBoundsTracker(pool, p.N)
	}
	// The bounds only widen as the pool grows, so the final window is the
	// closest this attempt ever came to feasibility.
	gap := math.Max(bounds.minSum-(p.TargetSum+tolerance), lower-bounds.maxSum)
	if gap < 0 {
		gap = 0
	}
	return false, gap / p.TargetSum, nil
}

// reachBound bounds from above what any subset of a growing pool can sum to:
// no subset exceeds the sum of the pool's positive values. While that stays
// below the tolerance window no N-subset can enter it, which is everything
// an oversampling step asks of the boundsTracker, at the price of two
// additions instead of a sort up front and two heap updates per step.
type reachBound struct {
	n        int     // values added
	positive float64 // running sum of the positive values
	mass     float64 // running sum of |value|: the scale of the rounding error
}

// reachGuard widens the bound past floating-point accumulation error, so
// that it dominates the tracker's maxSum as computed and not only the exact
// sum of the N largest. Adding n values one at a time is off by at most
// n·2⁻⁵³ of their mass, the tracker's maxSum (N−1 additions, then two
// operations per oversample) by at most twice that; n·2⁻⁵⁰ covers both
// nearly three times over.
const reachGuard = 0x1p-50

func newReachBound(pool []float64) reachBound {
	var b reachBound
	for _, v := range pool {
		b.add(v)
	}
	return b
}

func (b *reachBound) add(v float64) {
	b.n++
	if v > 0 {
		b.positive += v
	}
	b.mass += math.Abs(v)
}

// max returns a value no smaller than the sum of any subset of the values
// added, nor than a boundsTracker's maxSum over them.
func (b *reachBound) max() float64 {
	return b.positive + float64(b.n)*reachGuard*b.mass
}

// replayBoundsTracker builds the tracker an attempt would hold had it kept
// one from the start: seeded with the first n pool values, then fed the
// oversamples in draw order — the same operations in the same order, so the
// same floats.
func replayBoundsTracker(pool []float64, n int) *boundsTracker {
	b := newBoundsTracker(pool[:n], n)
	for _, v := range pool[n:] {
		b.add(v)
	}
	return b
}

// boundsTracker maintains the sums of the n smallest and n largest elements
// of a growing pool: a max-heap holds the n smallest (its root is the
// eviction candidate) and a min-heap the n largest. Each add is O(log n) and
// consumes no randomness, so it changes nothing about resolution results —
// only their cost.
type boundsTracker struct {
	n      int
	low    []float64 // max-heap of the n smallest elements
	high   []float64 // min-heap of the n largest elements
	minSum float64
	maxSum float64
}

// newBoundsTracker seeds the tracker with the initial pool, which must hold
// at least n elements (the resolver starts from exactly n).
func newBoundsTracker(pool []float64, n int) *boundsTracker {
	sorted := append([]float64(nil), pool...)
	sort.Float64s(sorted)
	b := &boundsTracker{n: n}
	b.minSum, b.maxSum = boundSums(sorted, n)
	if n > len(sorted) {
		n = len(sorted)
		b.n = n
	}
	b.low = append(b.low, sorted[:n]...)
	b.high = append(b.high, sorted[len(sorted)-n:]...)
	// Heapify: sift down from the last internal node.
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(b.low, i, func(a, c float64) bool { return a > c })
		siftDown(b.high, i, func(a, c float64) bool { return a < c })
	}
	return b
}

// add folds one new pool element into both bounds.
func (b *boundsTracker) add(v float64) {
	if v < b.low[0] {
		b.minSum += v - b.low[0]
		b.low[0] = v
		siftDown(b.low, 0, func(a, c float64) bool { return a > c })
	}
	if v > b.high[0] {
		b.maxSum += v - b.high[0]
		b.high[0] = v
		siftDown(b.high, 0, func(a, c float64) bool { return a < c })
	}
}

// siftDown restores the heap property rooted at i, where before reports
// whether its first argument must sit above its second.
func siftDown(h []float64, i int, before func(a, c float64) bool) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h) && before(h[l], h[best]) {
			best = l
		}
		if r < len(h) && before(h[r], h[best]) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// boundSums returns the minimum and maximum achievable sums of any subset of
// exactly n elements of the sorted slice.
func boundSums(sorted []float64, n int) (minSum, maxSum float64) {
	if n > len(sorted) {
		n = len(sorted)
	}
	for i := 0; i < n; i++ {
		minSum += sorted[i]
		maxSum += sorted[len(sorted)-1-i]
	}
	return minSum, maxSum
}

// nearestBound reports whichever achievable bound is closest to the target,
// for convergence traces.
func nearestBound(minSum, maxSum, target float64) float64 {
	if math.Abs(minSum-target) < math.Abs(maxSum-target) {
		return minSum
	}
	return maxSum
}

// selectSubset searches pool for a subset of exactly p.N elements whose sum
// is within tolerance of the target. It returns the best subset found, its
// sum, and whether it met the tolerance.
func (r *Resolver) selectSubset(pool []float64, p Problem) ([]float64, float64, bool) {
	tolerance := p.Beta * p.TargetSum

	// Phase 1 (greedy/random initialization): take a random permutation and
	// greedily fill N slots preferring elements that keep the running sum at
	// or below the target, mirroring the "valid and maximal" initial vector of
	// the original subset-sum heuristic but constrained to exactly N elements.
	perm := r.rng.Perm(len(pool))
	chosen := make([]int, 0, p.N)
	skipped := make([]int, 0, len(pool)-p.N)
	sum := 0.0
	for _, idx := range perm {
		if len(chosen) < p.N && sum+pool[idx] <= p.TargetSum {
			chosen = append(chosen, idx)
			sum += pool[idx]
		} else {
			skipped = append(skipped, idx)
		}
	}
	// If the greedy pass could not find N "fitting" elements, top up with the
	// smallest skipped elements so the subset has exactly N members.
	if len(chosen) < p.N {
		sort.Slice(skipped, func(i, j int) bool { return pool[skipped[i]] < pool[skipped[j]] })
		for _, idx := range skipped {
			if len(chosen) == p.N {
				break
			}
			chosen = append(chosen, idx)
			sum += pool[idx]
		}
	}
	if len(chosen) < p.N {
		// Pool smaller than N should be impossible (pool starts at N).
		return nil, sum, false
	}
	// Rebuild the skipped list as the complement of chosen.
	inChosen := make([]bool, len(pool))
	for _, idx := range chosen {
		inChosen[idx] = true
	}
	skipped = skipped[:0]
	for idx := range pool {
		if !inChosen[idx] {
			skipped = append(skipped, idx)
		}
	}

	if math.Abs(sum-p.TargetSum) <= tolerance {
		return gather(pool, chosen), sum, true
	}
	if p.SkipLocalImprovement {
		return gather(pool, chosen), sum, false
	}

	// Phase 2 (local improvement): repeatedly look for a swap between a chosen
	// element and a skipped element that reduces |sum - target|. Sorting the
	// skipped elements lets each search be a binary search for the ideal
	// replacement value, keeping the whole pass O(n log n).
	sort.Slice(skipped, func(i, j int) bool { return pool[skipped[i]] < pool[skipped[j]] })
	improved := true
	for pass := 0; pass < 4 && improved; pass++ {
		improved = false
		for ci, cIdx := range chosen {
			current := pool[cIdx]
			// Ideal replacement value to hit the target exactly.
			want := current + (p.TargetSum - sum)
			si := sort.Search(len(skipped), func(i int) bool { return pool[skipped[i]] >= want })
			bestErr := math.Abs(sum - p.TargetSum)
			bestSwap := -1
			for cand := si - 1; cand <= si+1; cand++ {
				if cand < 0 || cand >= len(skipped) {
					continue
				}
				candidate := pool[skipped[cand]]
				newErr := math.Abs(sum - current + candidate - p.TargetSum)
				if newErr < bestErr {
					bestErr = newErr
					bestSwap = cand
				}
			}
			if bestSwap >= 0 {
				sIdx := skipped[bestSwap]
				sum = sum - current + pool[sIdx]
				chosen[ci] = sIdx
				reinsertSorted(pool, skipped, bestSwap, cIdx)
				improved = true
				if math.Abs(sum-p.TargetSum) <= tolerance {
					return gather(pool, chosen), sum, true
				}
			}
		}
	}
	return gather(pool, chosen), sum, math.Abs(sum-p.TargetSum) <= tolerance
}

// reinsertSorted removes skipped[at] and inserts newIdx at its sorted
// position with one binary search and one copy shift. The previous
// implementation bubbled the new element into place with pairwise swaps —
// O(distance) swap operations per call, which degenerated to quadratic passes
// when heavy-tailed pools put replacements far from their slot.
func reinsertSorted(pool []float64, skipped []int, at, newIdx int) {
	v := pool[newIdx]
	pos := sort.Search(len(skipped), func(i int) bool { return pool[skipped[i]] >= v })
	switch {
	case pos > at+1:
		copy(skipped[at:pos-1], skipped[at+1:pos])
		skipped[pos-1] = newIdx
	case pos <= at:
		copy(skipped[pos+1:at+1], skipped[pos:at])
		skipped[pos] = newIdx
	default: // pos == at or at+1: the slot itself
		skipped[at] = newIdx
	}
}

func gather(pool []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}
