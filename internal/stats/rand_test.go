package stats

import (
	"sync"
	"testing"
)

func sequence(r *RNG, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

func equalSeq(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSplitStreamDeterministic(t *testing.T) {
	a := NewRNG(42).SplitStream("shard-7")
	b := NewRNG(42).SplitStream("shard-7")
	if !equalSeq(sequence(a, 64), sequence(b, 64)) {
		t.Fatal("SplitStream with identical key produced different streams")
	}
}

func TestSplitStreamsDistinct(t *testing.T) {
	parent := NewRNG(42)
	seen := map[int64]string{}
	keys := []string{"shard-0", "shard-1", "shard-2", "materialize", "placement"}
	for _, k := range keys {
		s := parent.SplitStream(k).Seed()
		if prev, dup := seen[s]; dup {
			t.Fatalf("keys %q and %q collided on seed %d", prev, k, s)
		}
		seen[s] = k
	}
	// Sibling indices must also separate, including from the parent itself.
	for i := uint64(0); i < 100; i++ {
		s := parent.SplitN(i).Seed()
		if s == parent.Seed() {
			t.Fatalf("SplitN(%d) returned the parent seed", i)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("SplitN(%d) collided with %q", i, prev)
		}
		seen[s] = "n"
	}
}

// TestSplitDoesNotConsumeParentState asserts the property the parallel
// pipeline depends on: deriving child streams never advances the parent, so
// concurrent workers splitting the same parent cannot perturb each other.
func TestSplitDoesNotConsumeParentState(t *testing.T) {
	ref := sequence(NewRNG(7), 32)
	r := NewRNG(7)
	r.SplitStream("x")
	r.SplitN(3)
	if !equalSeq(ref, sequence(r, 32)) {
		t.Fatal("SplitStream/SplitN consumed parent RNG state")
	}
}

// TestConcurrentSplit exercises concurrent child derivation under the race
// detector and checks the children match serially derived ones.
func TestConcurrentSplit(t *testing.T) {
	parent := NewRNG(1234)
	const n = 64
	want := make([][]uint64, n)
	for i := range want {
		want[i] = sequence(parent.SplitN(uint64(i)), 16)
	}
	got := make([][]uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = sequence(parent.SplitN(uint64(i)), 16)
		}(i)
	}
	wg.Wait()
	for i := range want {
		if !equalSeq(want[i], got[i]) {
			t.Fatalf("child %d differs between serial and concurrent derivation", i)
		}
	}
}

// TestSplitNSeparation spot-checks that consecutive shard streams are not
// trivially correlated: across many consecutive children the first draws
// should span the unit interval rather than cluster.
func TestSplitNSeparation(t *testing.T) {
	parent := NewRNG(99)
	var lo, hi int
	for i := uint64(0); i < 1000; i++ {
		v := parent.SplitN(i).Float64()
		if v < 0.25 {
			lo++
		}
		if v > 0.75 {
			hi++
		}
	}
	if lo < 150 || hi < 150 {
		t.Fatalf("first draws of consecutive streams are clustered: %d low, %d high of 1000", lo, hi)
	}
}

// TestSplitMix64Reference pins the generator to the published SplitMix64
// sequence for seed 1234567 (Vigna's reference implementation).
func TestSplitMix64Reference(t *testing.T) {
	want := []uint64{6457827717110365317, 3203168211198807973, 9817491932198370423,
		4593380528125082431, 16408922859458223821}
	if got := sequence(NewRNG(1234567), len(want)); !equalSeq(got, want) {
		t.Fatalf("draws %v, want %v", got, want)
	}
}

// TestStateDrawsAreTheRNGs: draws taken from a local copy of the state are
// the RNG's own once the state is written back.
func TestStateDrawsAreTheRNGs(t *testing.T) {
	want := sequence(NewRNG(42), 8)
	r := NewRNG(42)
	st := r.State()
	var v uint64
	for i := 0; i < 5; i++ {
		if st, v = st.Next(); v != want[i] {
			t.Fatalf("local draw %d = %#x, want %#x", i, v, want[i])
		}
	}
	if v := r.Uint64(); v != want[0] {
		t.Fatalf("a local copy advanced the RNG: %#x, want %#x", v, want[0])
	}
	r.SetState(st)
	if got := sequence(r, 3); !equalSeq(got, want[5:]) {
		t.Fatalf("after SetState %v, want %v", got, want[5:])
	}
}
