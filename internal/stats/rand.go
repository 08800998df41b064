// Package stats provides the statistical machinery used by Impressions:
// parametric probability distributions (lognormal, Pareto, hybrid, mixtures,
// Poisson, inverse-polynomial, Zipf), empirical and categorical distributions,
// power-of-two binned histograms, and deterministic random sampling.
//
// All sampling is driven by an explicit *RNG so that every generated
// file-system image is exactly reproducible from a reported seed, which is a
// core design goal of the Impressions framework (§3.1 of the paper).
package stats

import "math/rand"

// RNG is a deterministic random number generator used throughout Impressions.
// It carries an explicit seed so that images are reproducible: the seed is
// recorded in the image Report and re-supplying it regenerates a bit-identical
// image.
//
// The core generator is SplitMix64 rather than math/rand's lagged-Fibonacci
// source: construction is two word writes instead of a 607-entry table fill,
// which matters enormously on the sharded hot paths where every file and
// every shard derives its own stream (SplitStream/SplitN), and each draw is a
// handful of arithmetic ops. Uniform draws go straight to the SplitMix64
// state; the derived distributions math/rand implements well (ziggurat
// normals, exponentials, Perm/Shuffle) are served by a math/rand.Rand wrapped
// around the same state, so every draw — from either path — advances the one
// deterministic stream.
type RNG struct {
	seed int64
	st   SplitMix64
	src  *rand.Rand
}

// splitMixGamma is SplitMix64's increment, the golden-ratio odd constant.
const splitMixGamma = 0x9e3779b97f4a7c15

// mix64 is the SplitMix64 finalizer (Steele, Lea & Flood). Every draw and
// every seed derivation goes through it.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SplitMix64 is the generator state behind an RNG. It also implements
// math/rand.Source64, which serves the RNG's derived distributions.
//
// A content kernel copies an RNG's state into a local (RNG.State), draws from
// the local with Next and writes it back (RNG.SetState). Next takes and
// returns the state by value, so the local never has its address taken and
// stays in a register: a state reached through a pointer is loaded and stored
// on every draw, because the compiler cannot prove that the kernel's byte
// stores do not alias it.
type SplitMix64 struct{ s uint64 }

// Next returns the state advanced by one draw, and that draw.
func (st SplitMix64) Next() (SplitMix64, uint64) {
	st.s += splitMixGamma
	return st, mix64(st.s)
}

// Uint64 implements rand.Source64.
func (st *SplitMix64) Uint64() uint64 {
	var v uint64
	*st, v = st.Next()
	return v
}

// Int63 implements rand.Source.
func (st *SplitMix64) Int63() int64 { return int64(st.Uint64() >> 1) }

// Seed implements rand.Source.
func (st *SplitMix64) Seed(seed int64) { st.s = uint64(seed) }

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	r := &RNG{seed: seed}
	r.st.s = uint64(seed)
	r.src = rand.New(&r.st)
	return r
}

// Seed returns the seed the RNG was created with.
func (r *RNG) Seed() int64 { return r.seed }

// Fork derives a new independent RNG from this one. The derived stream is a
// deterministic function of the parent seed and the supplied label, so
// subsystems (namespace creation, file sizing, content generation, ...) each
// get their own stream and remain reproducible regardless of how many samples
// the other subsystems draw.
func (r *RNG) Fork(label string) *RNG {
	return NewRNG(DeriveSeed(r.seed, label))
}

// SplitStream derives a child RNG keyed by an arbitrary string (a file path,
// a shard name, ...). Unlike Fork's plain XOR, the child seed is passed
// through a SplitMix64 finalizer so that structurally similar keys ("shard-1",
// "shard-2", ...) still yield well-separated streams. SplitStream reads only
// the parent's immutable seed — it never consumes parent state — so any number
// of goroutines may split the same parent concurrently, which is the
// foundation of the deterministic parallel generation pipeline: work items
// derive their streams from stable keys, making the image independent of
// worker scheduling.
func (r *RNG) SplitStream(key string) *RNG {
	return NewRNG(DeriveSeedKey(r.seed, key))
}

// SplitN derives the i-th child stream of this RNG. Like SplitStream it is a
// pure function of the parent seed and the index, safe for concurrent use,
// and produces well-separated streams for consecutive indices. It is the
// allocation-free variant used on hot sharded paths (per-shard metadata
// assignment, per-file content generation).
func (r *RNG) SplitN(i uint64) *RNG {
	return NewRNG(DeriveSeedIndex(r.seed, i))
}

// UniformAt returns one uniform value in [0,1) from the i-th child stream of
// this RNG without allocating the stream. Like SplitN it is a pure function
// of the parent seed and the index — safe for concurrent use from any number
// of goroutines — but it skips constructing a full child RNG, so it is the
// allocation-free primitive for hot paths that need exactly one draw per
// index (the parallel namespace skeleton's per-directory parent choice).
func (r *RNG) UniformAt(i uint64) float64 {
	v := splitmix64(uint64(DeriveSeedIndex(r.seed, i)))
	return float64(v>>11) / (1 << 53)
}

// fnv1a hashes a label with 64-bit FNV-1a.
func fnv1a(label string) int64 {
	h := int64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= int64(label[i])
		h *= 1099511628211
	}
	return h
}

// splitmix64 is one SplitMix64 step from state x; it drives the seed
// derivation of SplitStream/SplitN so that correlated inputs map to
// uncorrelated child seeds.
func splitmix64(x uint64) uint64 { return mix64(x + splitMixGamma) }

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 { return float64(r.st.Uint64()>>11) / (1 << 53) }

// Intn returns a uniform integer in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int { return r.src.Intn(n) }

// Int63n returns a uniform int64 in [0,n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 { return r.src.Int63n(n) }

// NormFloat64 returns a standard normal variate.
func (r *RNG) NormFloat64() float64 { return r.src.NormFloat64() }

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 { return r.src.ExpFloat64() }

// Perm returns a random permutation of [0,n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Uint64 returns a pseudo-random 64-bit value.
func (r *RNG) Uint64() uint64 { return r.st.Uint64() }

// State returns a copy of the RNG's generator state, for a kernel that draws
// from a local and hands the state back with SetState.
func (r *RNG) State() SplitMix64 { return r.st }

// SetState replaces the RNG's generator state with st, which a kernel drew
// forward from State. The draws taken from st are then the RNG's own: the
// next draw from r is the one after them.
func (r *RNG) SetState(st SplitMix64) { r.st = st }

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Distribution is a continuous (or effectively continuous) probability
// distribution from which Impressions draws independent samples.
type Distribution interface {
	// Sample draws one value from the distribution using rng.
	Sample(rng *RNG) float64
	// Mean returns the theoretical mean, or NaN if undefined.
	Mean() float64
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// Name returns a short identifier used in reproducibility reports.
	Name() string
}

// SampleN draws n independent samples from d.
func SampleN(d Distribution, rng *RNG, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Sample(rng)
	}
	return out
}
