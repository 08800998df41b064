package stats

// This file defines the *stable wire contract* for RNG stream derivation.
//
// Every derived stream in Impressions — a phase fork, a shard stream, a
// per-file content stream — is a pure function of the parent seed and a
// stable key, never of scheduling or worker identity, so a worker on another
// machine (or another build of this code) reconstructs exactly the streams
// a single process would. The three derivation functions below are
// therefore frozen: changing any of them breaks cross-process and
// cross-version reproducibility, and the golden-value tests in
// streamkey_test.go will fail loudly. A plan names its shards' content
// stream by the tag "fork:materialize" (Fork(fsimage.MaterializeStreamLabel)
// of the plan seed), which workers hold to this build's constant.

// DeriveSeed returns the child seed Fork(label) derives from a parent seed:
// the parent seed XORed with the 64-bit FNV-1a hash of the label.
func DeriveSeed(parent int64, label string) int64 {
	return parent ^ fnv1a(label)
}

// DeriveSeedKey returns the child seed SplitStream(key) derives: the XOR of
// parent seed and FNV-1a(key), passed through the SplitMix64 finalizer so
// structurally similar keys still yield well-separated streams.
func DeriveSeedKey(parent int64, key string) int64 {
	return int64(splitmix64(uint64(parent) ^ uint64(fnv1a(key))))
}

// splitIndexPhi offsets SplitN/UniformAt indices before finalizing so index
// 0 does not collapse onto the raw parent seed.
const splitIndexPhi = 0x632be59bd9b4e019

// DeriveSeedIndex returns the child seed SplitN(i) derives for the i-th
// child stream of a parent seed.
func DeriveSeedIndex(parent int64, i uint64) int64 {
	return int64(splitmix64(uint64(parent) ^ splitmix64(i+splitIndexPhi)))
}
