package namespace

import (
	"reflect"
	"testing"

	"impressions/internal/stats"
)

// TestPartitionRootsRoundTrip serializes a partition as per-shard cut-set
// roots and rebuilds it with PartitionFromRoots: the reconstruction must be
// identical, which is what lets a distributed plan carry the partition
// compactly and workers on other machines rebuild it exactly.
func TestPartitionRootsRoundTrip(t *testing.T) {
	tree := GenerateTree(stats.NewRNG(7), 3000, ShapeGenerative)
	for _, shards := range []int{1, 2, 4, 9} {
		part := PartitionBalanced(tree, shards, nil)
		roots := make([][]int, part.Len())
		for s := range roots {
			roots[s] = part.ShardRoots(s)
		}
		rebuilt, err := PartitionFromRoots(tree, roots)
		if err != nil {
			t.Fatalf("shards=%d: PartitionFromRoots: %v", shards, err)
		}
		if !reflect.DeepEqual(rebuilt.Shards, part.Shards) {
			t.Fatalf("shards=%d: rebuilt partition differs", shards)
		}
		for id := 0; id < tree.Len(); id++ {
			if rebuilt.ShardOf(id) != part.ShardOf(id) {
				t.Fatalf("shards=%d: ShardOf(%d) differs after round-trip", shards, id)
			}
		}
	}
}

// TestPartitionFromRootsValidates covers the rejection paths a tampered or
// truncated plan must hit.
func TestPartitionFromRootsValidates(t *testing.T) {
	tree := GenerateTree(stats.NewRNG(7), 200, ShapeGenerative)
	part := PartitionBalanced(tree, 2, nil)
	good := make([][]int, part.Len())
	for s := range good {
		good[s] = part.ShardRoots(s)
	}
	if len(good) < 2 || len(good[0]) == 0 || len(good[1]) == 0 {
		t.Skip("tree too small to build a 2-shard partition")
	}

	// Unknown directory ID.
	bad := [][]int{{tree.Len() + 5}, good[1]}
	if _, err := PartitionFromRoots(tree, bad); err == nil {
		t.Error("expected error for unknown directory")
	}
	// The root itself can never be a cut.
	bad = [][]int{{0}, good[1]}
	if _, err := PartitionFromRoots(tree, bad); err == nil {
		t.Error("expected error for the root as a cut")
	}
	// Duplicate assignment.
	bad = [][]int{good[0], append(append([]int{}, good[1]...), good[0][0])}
	if _, err := PartitionFromRoots(tree, bad); err == nil {
		t.Error("expected error for duplicate subtree assignment")
	}
	// No shards at all.
	if _, err := PartitionFromRoots(tree, nil); err == nil {
		t.Error("expected error for empty partition")
	}
}

// TestPartitionBalancedCoversEveryDirOnce asserts the balanced partitioner
// produces exactly the requested shard count, assigns every directory
// exactly once, keeps shards in ascending ID order, and round-trips through
// its cut-set serialization — on a generative tree and on the degenerate
// ones: a chain (one top-level subtree), a flat tree (nothing to cut below
// the root's children) and the root alone (every shard but the first empty).
func TestPartitionBalancedCoversEveryDirOnce(t *testing.T) {
	for name, tree := range map[string]*Tree{
		"generative": GenerateTree(stats.NewRNG(3), 5000, ShapeGenerative),
		"deep":       GenerateTree(nil, 50, ShapeDeep),
		"flat":       GenerateTree(nil, 100, ShapeFlat),
		"single":     GenerateTree(stats.NewRNG(1), 1, ShapeGenerative),
	} {
		for _, shards := range []int{1, 2, 4, 16} {
			part := PartitionBalanced(tree, shards, nil)
			if part.Len() != shards {
				t.Fatalf("%s: requested %d shards, got %d", name, shards, part.Len())
			}
			if part.ShardOf(0) != 0 {
				t.Fatalf("%s: the root is in shard %d", name, part.ShardOf(0))
			}
			seen := make([]int, tree.Len())
			for s, dirs := range part.Shards {
				prev := -1
				for _, id := range dirs {
					seen[id]++
					if id <= prev {
						t.Fatalf("%s: shard %d not in ascending ID order", name, s)
					}
					prev = id
					if part.ShardOf(id) != s {
						t.Fatalf("%s: ShardOf(%d) = %d, want %d", name, id, part.ShardOf(id), s)
					}
				}
			}
			for id, n := range seen {
				if n != 1 {
					t.Fatalf("%s shards=%d: dir %d appears %d times", name, shards, id, n)
				}
			}
			roots := make([][]int, part.Len())
			for s := range roots {
				roots[s] = part.ShardRoots(s)
			}
			rebuilt, err := PartitionFromRoots(tree, roots)
			if err != nil {
				t.Fatalf("%s shards=%d: PartitionFromRoots: %v", name, shards, err)
			}
			if !reflect.DeepEqual(rebuilt.Shards, part.Shards) {
				t.Fatalf("%s shards=%d: rebuilt balanced partition differs", name, shards)
			}
		}
	}
}

// TestPartitionBalancedSplitsDominantSubtrees asserts the property that
// motivated the balanced partitioner: a generative tree whose namespace is
// concentrated under one top-level directory must still yield multiple
// non-empty shards with bounded imbalance, which takes cutting below the
// root's children.
func TestPartitionBalancedSplitsDominantSubtrees(t *testing.T) {
	// Deep chains hang everything under one child of the root; generative
	// trees concentrate by preferential attachment. Both must split.
	for name, tree := range map[string]*Tree{
		"generative": GenerateTree(stats.NewRNG(9), 600, ShapeGenerative),
		"deep":       GenerateTree(stats.NewRNG(9), 64, ShapeDeep),
	} {
		const shards = 4
		part := PartitionBalanced(tree, shards, nil)
		nonEmpty := 0
		maxLoad := 0
		for _, dirs := range part.Shards {
			if len(dirs) > 0 {
				nonEmpty++
			}
			if len(dirs) > maxLoad {
				maxLoad = len(dirs)
			}
		}
		if nonEmpty < 2 {
			t.Errorf("%s: only %d non-empty shards of %d", name, nonEmpty, shards)
		}
		if maxLoad > tree.Len()*3/4 {
			t.Errorf("%s: heaviest shard holds %d of %d dirs — not balanced", name, maxLoad, tree.Len())
		}
	}
}

// TestPartitionBalancedDeterminism asserts two runs agree exactly.
func TestPartitionBalancedDeterminism(t *testing.T) {
	tree := GenerateTree(stats.NewRNG(21), 2000, ShapeGenerative)
	w := func(d *Dir) float64 { return float64(1 + d.ID%7) }
	a := PartitionBalanced(tree, 8, w)
	b := PartitionBalanced(tree, 8, w)
	if !reflect.DeepEqual(a.Shards, b.Shards) {
		t.Fatal("balanced partition is not deterministic")
	}
}

func TestParseShape(t *testing.T) {
	for s, want := range map[string]TreeShape{"": ShapeGenerative, "generative": ShapeGenerative, "flat": ShapeFlat, "deep": ShapeDeep} {
		got, err := ParseShape(s)
		if err != nil || got != want {
			t.Errorf("ParseShape(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseShape("mystery"); err == nil {
		t.Error("ParseShape should reject unknown shapes")
	}
}
