package constraint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"impressions/internal/parallel"
	"impressions/internal/stats"
	"impressions/internal/stats/gof"
)

// Golden pins for Resolve. The values were taken at the commit before the
// resolver learned to bound an attempt before building its boundsTracker
// (PR 17's tree), where every attempt sorted the pool and maintained both
// heaps from the first oversample. A value here changes only when what a
// spec emits is meant to change: Result feeds the size column, and the RNG
// position feeds every draw made after Resolve.

// recordingDist notes every draw in order, so a pin can also state where in
// its first attempt the running sum of positive draws first reaches
// TargetSum − tolerance: the step from which the N-largest bound can no
// longer exclude the target and the tracker has to exist.
type recordingDist struct {
	stats.Distribution
	draws *[]float64
}

func (d recordingDist) Sample(rng *stats.RNG) float64 {
	v := d.Distribution.Sample(rng)
	*d.draws = append(*d.draws, v)
	return v
}

// firstReach is the index, among the first attempt's draws (N pool draws,
// then up to λN oversamples), of the draw that lifts the running sum of
// positive values to TargetSum·(1−β); −1 when none does.
func firstReach(draws []float64, p Problem) int {
	applyDefaults(&p)
	limit := p.TargetSum - p.Beta*p.TargetSum
	sum := 0.0
	for i, v := range draws[:min(len(draws), p.N+int(p.Lambda*float64(p.N)))] {
		if v > 0 {
			sum += v
		}
		if sum >= limit {
			return i
		}
	}
	return -1
}

func valuesSHA256(values []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range values {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// awayPool is caller-supplied storage that, like a column in a temp file,
// hands Draw a scratch shard and keeps it out of the resolver's sight.
type awayPool struct {
	n      int
	shards [][]float64
	scans  int
}

func (a *awayPool) Draw(s int, fill func([]float64)) error {
	lo, hi := parallel.Bounds(a.n, s)
	a.shards[s] = make([]float64, hi-lo)
	fill(a.shards[s])
	return nil
}

func (a *awayPool) Scan(visit func([]float64)) error {
	a.scans++
	for _, shard := range a.shards {
		visit(shard)
	}
	return nil
}

func TestGoldenResolve(t *testing.T) {
	// The default file-size model (core.DefaultFileSizeDistribution) and the
	// benchmark's SMALL model, spelled out: this package sits below core.
	const paretoXm = 512 * 1024 * 1024
	defaultModel := stats.NewHybrid(stats.NewLognormal(9.48, 2.46), stats.NewPareto(0.91, paretoXm), 0.99994).WithCap(8 << 30)
	smallModel := stats.NewHybrid(stats.NewLognormal(6.9, 0.5), stats.NewPareto(0.91, paretoXm), 0.99994)
	signed := stats.NewEmpirical([]float64{-40, -5, 0, 3, 12, 30, 75}, "signed")
	nTimesMean := func(n int) float64 { return float64(int64(float64(n) * defaultModel.Mean())) }

	pins := []struct {
		name    string
		seed    int64
		problem Problem

		sum, initialBeta, finalBeta float64
		oversamples, restarts       int
		converged                   bool
		values                      string
		nextUint64                  uint64
		draws, firstReach           int
	}{
		{
			// plan_meta's shape: no -size, so the target is N × the
			// Pareto-inflated mean and the sample reaches a sixth of it. Two
			// wide misses, the whole oversample budget both times.
			name: "target above reach", seed: 1,
			problem: Problem{N: 20000, TargetSum: nTimesMean(20000), Dist: defaultModel},
			sum:     0, initialBeta: 0.8465877754659473, finalBeta: 0, oversamples: 20000, restarts: 1, converged: false,
			values:     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			nextUint64: 13378456880709366784, draws: 80000, firstReach: -1,
		},
		{
			// Even the N smallest of 2N draws sum past the target.
			name: "target below reach", seed: 1,
			problem: Problem{N: 2000, TargetSum: 1e-4 * 2000 * paperDist().Mean(), Dist: paperDist()},
			sum:     0, initialBeta: 10997.845439088838, finalBeta: 0, oversamples: 2000, restarts: 1, converged: false,
			values:     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			nextUint64: 1596040996486734043, draws: 8000, firstReach: 0,
		},
		{
			// SMALL(30000): a Pareto draw in the pool puts the raw sum 45×
			// over; two oversamples later an N-subset without it fits.
			name: "reached after k oversamples", seed: 1,
			problem: Problem{N: 30000, TargetSum: float64(int64(1.12 * 1024 * 30000)), Dist: smallModel},
			sum:     3.368367920969264e+07, initialBeta: 44.934125832239744, finalBeta: 0.02100541731501575, oversamples: 2, restarts: 0, converged: true,
			values:     "9b0f7504c3d409dd0d4a0e63a65965135025578df5db96253df970553d73b38e",
			nextUint64: 17507136226050956245, draws: 30002, firstReach: 3032,
		},
		{
			// Oversample 860 is a Pareto draw that carries the running sum
			// across the bound, and the subset search converges on that step.
			name: "Pareto draw crosses the bound and converges", seed: 195,
			problem: Problem{N: 2000, TargetSum: nTimesMean(2000), Dist: defaultModel},
			sum:     4.522848018765182e+09, initialBeta: 0.9195261565604189, finalBeta: 0.029403203259405885, oversamples: 860, restarts: 0, converged: true,
			values:     "4f8a3e1b851c353efc914f2985e4df4af04259a4b21651d0652ce1883c0de03e",
			nextUint64: 5179346519384395745, draws: 2860, firstReach: 2859,
		},
		{
			// The same crossing at oversample 1546, after which the search
			// stalls: one attempt with the tracker, two without.
			name: "Pareto draw crosses the bound and stalls", seed: 210,
			problem: Problem{N: 2000, TargetSum: nTimesMean(2000), Dist: defaultModel},
			sum:     0, initialBeta: 0.8395432711404012, finalBeta: 0, oversamples: 2000, restarts: 2, converged: false,
			values:     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			nextUint64: 6555744079977746192, draws: 11596, firstReach: 3545,
		},
		{
			// The raw draw already fits: the pool is the result, and with
			// caller-supplied storage it is never read back.
			name: "raw draw inside the tolerance", seed: 1,
			problem: Problem{N: 10000, TargetSum: 10000 * stats.NewLognormal(6.9, 0.5).Mean(), Dist: stats.NewLognormal(6.9, 0.5)},
			sum:     1.1217858458713837e+07, initialBeta: 0.0023201047291486936, finalBeta: 0.0023201047291486936, oversamples: 0, restarts: 0, converged: true,
			values:     "a020f9af03f8eed8485a8381fffc9a03884ee2441b5d8ead22d942c784edd645",
			nextUint64: 13757245211066428519, draws: 10000, firstReach: 9503,
		},
		{
			// Negative values: the positive draws alone reach the window at
			// oversample 244, the N largest at oversample 344.
			name: "negative values", seed: 1,
			problem: Problem{N: 2000, TargetSum: 40000, Dist: signed, SkipKS: true},
			sum:     38008, initialBeta: 0.49185, finalBeta: 0.0498, oversamples: 344, restarts: 0, converged: true,
			values:     "747e48431c3bb8fdf47447c5207f740e68b58c513778e72238a4436e1e414060",
			nextUint64: 12803558224946596580, draws: 2344, firstReach: 2243,
		},
	}
	for _, pin := range pins {
		for _, away := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/storage=%v", pin.name, away), func(t *testing.T) {
				var draws []float64
				p := pin.problem
				p.Dist = recordingDist{pin.problem.Dist, &draws}
				rng := stats.NewRNG(pin.seed)
				r := NewResolver(rng)
				pool := &awayPool{n: p.N, shards: make([][]float64, parallel.Shards(p.N))}
				if away {
					r.SetPoolStorage(pool)
				}
				res, err := r.Resolve(p)
				if err != nil {
					t.Fatal(err)
				}
				values := res.Values
				if away && res.Converged && res.Oversamples == 0 {
					// The raw draw stands: it is in the storage, summed once
					// and never read back.
					if res.Values != nil || pool.scans != 1 {
						t.Errorf("Resolve kept %d values and scanned the storage %d times", len(res.Values), pool.scans)
					}
					for _, shard := range pool.shards {
						values = append(values, shard...)
					}
				}
				got := []any{res.Sum, res.InitialBeta, res.FinalBeta, res.Oversamples, res.Restarts, res.Converged,
					valuesSHA256(values), rng.Uint64(), len(draws), firstReach(draws, pin.problem)}
				want := []any{pin.sum, pin.initialBeta, pin.finalBeta, pin.oversamples, pin.restarts, pin.converged,
					pin.values, pin.nextUint64, pin.draws, pin.firstReach}
				for i, field := range []string{"Sum", "InitialBeta", "FinalBeta", "Oversamples", "Restarts", "Converged",
					"SHA-256 of Values", "next Uint64 of the resolver's RNG", "draws", "firstReach"} {
					if got[i] != want[i] {
						t.Errorf("%s = %v, pinned %v", field, got[i], want[i])
					}
				}
				if res.OversampleRate != float64(res.Oversamples)/float64(pin.problem.N) {
					t.Errorf("OversampleRate = %v with %d oversamples of N = %d", res.OversampleRate, res.Oversamples, pin.problem.N)
				}
			})
		}
	}
}

// TestResolveWithoutTargetSum: a problem with no sum constraint returns the
// pool that the same problem with its target on that pool's sum keeps on the
// fast path — the same values, and the resolver's RNG left at the same place
// — at one and at four workers, on the heap and in caller storage, which it
// never reads back.
func TestResolveWithoutTargetSum(t *testing.T) {
	const n, seed = 2*4096 + 5, 7 // three shards, the last a short one
	for _, away := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("storage=%v/j%d", away, workers), func(t *testing.T) {
				resolve := func(target float64) (Result, []float64, uint64, int) {
					r := NewResolver(stats.NewRNG(seed))
					r.SetParallelism(workers)
					pool := &awayPool{n: n, shards: make([][]float64, parallel.Shards(n))}
					if away {
						r.SetPoolStorage(pool)
					}
					res, err := r.Resolve(Problem{N: n, TargetSum: target, Dist: paperDist()})
					if err != nil {
						t.Fatal(err)
					}
					values := res.Values
					if away {
						for _, shard := range pool.shards {
							values = append(values, shard...)
						}
					}
					return res, values, r.rng.Uint64(), pool.scans
				}
				free, freeValues, freeNext, freeScans := resolve(0)
				sum := 0.0
				for _, v := range freeValues {
					sum += v
				}
				if !free.Converged || free.Oversamples != 0 || free.Restarts != 0 || free.OversampleRate != 0 {
					t.Errorf("no target: converged %v after %d oversamples and %d restarts", free.Converged, free.Oversamples, free.Restarts)
				}
				if free.Sum != 0 || free.InitialBeta != 0 || free.FinalBeta != 0 || free.KS != (gof.KSResult{}) || free.Trace != nil {
					t.Errorf("no target: sum %v, betas %v, %v, K-S %+v, trace %v; want all zero", free.Sum, free.InitialBeta, free.FinalBeta, free.KS, free.Trace)
				}
				if freeScans != 0 || (away && free.Values != nil) {
					t.Errorf("no target: storage scanned %d times, %d values held", freeScans, len(free.Values))
				}
				fast, fastValues, fastNext, _ := resolve(sum)
				if !fast.Converged || fast.Oversamples != 0 || fast.Restarts != 0 {
					t.Fatalf("target on the pool's sum left the fast path: converged %v after %d oversamples", fast.Converged, fast.Oversamples)
				}
				if valuesSHA256(freeValues) != valuesSHA256(fastValues) || len(freeValues) != n {
					t.Errorf("no target drew %d values that differ from the fast path's %d", len(freeValues), len(fastValues))
				}
				if freeNext != fastNext {
					t.Errorf("next RNG draw %d without a target, %d on the fast path", freeNext, fastNext)
				}
			})
		}
	}
}
