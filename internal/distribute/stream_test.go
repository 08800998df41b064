package distribute

import (
	"bytes"
	"context"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"testing"
	"time"

	"impressions/internal/core"
)

// TestWorkerDecodesOnlyItsShard is the worker-memory regression test: a
// worker's decode of its fragment must retain exactly the shard's file
// records and directories — never the image's.
func TestWorkerDecodesOnlyItsShard(t *testing.T) {
	cfg := core.Config{NumFiles: 2000, NumDirs: 300, FSSizeBytes: 2000 * 512, Seed: 77, Parallelism: 1}
	plan, frags := fragmentBuffers(t, PlanRequest{Config: cfg, MaxShards: 4, ChunkSize: 128})
	if len(plan.Shards) != 4 {
		t.Fatalf("want 4 shards, got %d", len(plan.Shards))
	}
	for s, sp := range plan.Shards {
		view, err := DecodeShardView(bytes.NewReader(frags[s]))
		if err != nil {
			t.Fatalf("DecodeShardView(%d): %v", s, err)
		}
		if got := len(view.Files); got != sp.Files || got >= plan.Files {
			t.Errorf("shard %d retained %d file records, plan assigns it %d of %d", s, got, sp.Files, plan.Files)
		}
		if len(view.Dirs) != sp.Dirs {
			t.Errorf("shard %d sees %d dirs, plan says %d", s, len(view.Dirs), sp.Dirs)
		}
	}
}

// liveHeapPeak samples the live heap while fn runs — the bytes the GC it
// forces before each read marked live, so neither floating garbage nor what
// fn's goroutines allocate between that GC and the read counts — and
// returns the peak observed growth over the pre-run baseline in bytes.
func liveHeapPeak(t *testing.T, fn func()) uint64 {
	t.Helper()
	live := func() uint64 {
		runtime.GC()
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	baseline := live()
	var peak atomic.Uint64
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
			}
			if n := live(); n > peak.Load() {
				peak.Store(n)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}()
	fn()
	close(quit)
	<-done
	if peak.Load() < baseline {
		return 0
	}
	return peak.Load() - baseline
}

// TestMergeMemoryBound: the one merge holds the tree, the partition and a
// chunk of records per fragment beside the manifests it is handed, never the
// plan's file records, and no tree of the replay's own. It merges
// SMALL(300000) — the benchmark's small-file shape at 300k files in 30k
// directories, 28 MB of fragments — as 8 fragments against sealed manifests
// built from their records, and bounds the peak live heap beyond them
// (liveHeapPeak's baseline is taken with the manifests and the fragments
// loaded). It merged them as 2 fragments too, under a cap 12 MiB lower;
// every retention measured below stands further over the cap at 8.
func TestMergeMemoryBound(t *testing.T) {
	if raceEnabled {
		t.Skip("memory ceilings are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("300k-file merge skipped in -short")
	}
	const k = 8
	plan, frags := fragmentBuffers(t, PlanRequest{Config: smallConfig(300_000), MaxShards: k})
	manifests := make([]*Manifest, len(plan.Shards))
	for s := range manifests {
		v, err := DecodeShardView(bytes.NewReader(frags[s]))
		if err != nil {
			t.Fatalf("K=%d DecodeShardView(%d): %v", k, s, err)
		}
		manifests[s] = hashedManifest(v)
	}
	// Measured on 2 cores (Go 1.24): a merge that retained this
	// plan's file records peaked at 47.5 to 48.3 MB of heap beyond the
	// manifests; a replay that rebuilt fragment 0's tree and partition
	// beside the check's at 12.6 to 16.6 MB at K=2 and 23.6 to 33.8 MB at
	// K=8; this merge, whose record check holds the replay's one tree
	// and partition, at 8.4 to 10.0 MB at K=2 and 20.4 to 22.8 MB at
	// K=8 while encoding/json decoded its chunks (9.2 to 11.3 and 21.0
	// to 23.4 MB measured again beside the next), and at 7.5 to 10.1 MB
	// and 18.0 to 20.7 MB since fsimage.ChunkReader reads them into
	// reused record arrays, each fragment's chunk in decoding making up
	// the difference. A merge whose every fragment decoder rebuilt its
	// tree peaked at 17.6 to 23.8 MB at K=2 and at 53.3 to 59.0 MB at
	// K=8. The cap is 14 MiB for two fragments and 2 MiB more for each
	// fragment beyond: a chunk of records in decoding, at the default
	// 8192 records a chunk, where a tree and partition of these 30k
	// directories would add 5 MB more.
	cap := uint64(14<<20 + (k-2)*2<<20)
	var (
		res *MergeResult
		err error
	)
	peak := liveHeapPeak(t, func() {
		res, err = Merge(fragmentSource(context.Background(), frags), manifests)
	})
	if err == nil {
		err = res.Err()
	}
	if err != nil {
		t.Fatalf("K=%d Merge: %v", k, err)
	}
	if res.Digest == "" {
		t.Fatalf("K=%d: the merge of hashed manifests produced no digest", k)
	}
	t.Logf("300k-file merge of %d fragments: peak live heap %.1f MB beyond the manifests (cap %.1f MB)", k, float64(peak)/(1<<20), float64(cap)/(1<<20))
	if peak > cap {
		t.Errorf("the merge of %d fragments peaked at %.1f MB of live heap beyond its manifests, cap is %.1f MB — something is retaining the plan's file records or a second tree",
			k, float64(peak)/(1<<20), float64(cap)/(1<<20))
	}
}

// countingDiscard swallows writes without retaining them.
type countingDiscard struct{}

func (countingDiscard) Write(p []byte) (int, error) { return len(p), nil }
