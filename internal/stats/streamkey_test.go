package stats

import "testing"

// TestStreamKeyGoldenValues freezes the stream-derivation wire contract.
// These constants were computed once and must never change: plan files
// produced by one build are executed by workers running another, and both
// must derive identical RNG streams. If this test fails, you changed the
// derivation math — revert, or version the plan format.
func TestStreamKeyGoldenValues(t *testing.T) {
	cases := []struct {
		name string
		got  int64
		want int64
	}{
		{"DeriveSeed(12345, materialize)", DeriveSeed(12345, "materialize"), -6244051659929340579},
		{"DeriveSeedKey(12345, shard-7)", DeriveSeedKey(12345, "shard-7"), -1545897767454643603},
		{"DeriveSeedIndex(12345, 42)", DeriveSeedIndex(12345, 42), -7150689837974186015},
		{"Fork(materialize).SplitN(42)", NewRNG(12345).Fork("materialize").SplitN(42).Seed(), 1470868729863677072},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d (wire contract broken!)", c.name, c.got, c.want)
		}
	}
}

// TestStreamKeyMatchesRNGMethods asserts that each RNG derivation method
// seeds its child with its Derive function, and that the child draws the
// stream NewRNG gives that seed.
func TestStreamKeyMatchesRNGMethods(t *testing.T) {
	const seed = 987654321
	root := NewRNG(seed)
	cases := []struct {
		name  string
		child *RNG
		want  int64
	}{
		{"Fork", root.Fork("materialize"), DeriveSeed(seed, "materialize")},
		{"SplitStream", root.SplitStream("x/y:z"), DeriveSeedKey(seed, "x/y:z")},
		{"SplitN", root.SplitN(17), DeriveSeedIndex(seed, 17)},
	}
	for _, c := range cases {
		if got := c.child.Seed(); got != c.want {
			t.Fatalf("%s seeds %d, its Derive function %d", c.name, got, c.want)
		}
		fresh := NewRNG(c.want)
		for i := 0; i < 16; i++ {
			if av, bv := c.child.Uint64(), fresh.Uint64(); av != bv {
				t.Fatalf("%s: draw %d differs: %d vs %d", c.name, i, av, bv)
			}
		}
	}
}

// TestUniformAtMatchesSplitN pins UniformAt to SplitN's first draw path:
// both must read the same derived stream.
func TestUniformAtMatchesSplitN(t *testing.T) {
	r := NewRNG(42)
	for i := uint64(0); i < 64; i++ {
		if got, want := r.UniformAt(i), r.SplitN(i).Float64(); got != want {
			t.Fatalf("UniformAt(%d) = %v, want %v", i, got, want)
		}
	}
}
