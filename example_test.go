package impressions_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"impressions"
)

// ExampleGenerate generates a small image entirely in memory.
func ExampleGenerate() {
	cfg := impressions.Config{NumFiles: 200, NumDirs: 40, FSSizeBytes: 200 * 1024, Seed: 7}
	res, err := impressions.Generate(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("files:", res.Image.FileCount())
	fmt.Println("dirs:", res.Image.DirCount())
	// Output:
	// files: 200
	// dirs: 40
}

// ExampleGenerateContext shows cancellation: an already-cancelled context
// aborts the run before any work happens.
func ExampleGenerateContext() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := impressions.GenerateContext(ctx, impressions.Config{NumFiles: 200, Seed: 7})
	fmt.Println(errors.Is(err, context.Canceled))
	// Output: true
}

// ExampleSpecFingerprint shows the content address the plan cache is keyed
// by: equivalent specs share it, different seeds do not.
func ExampleSpecFingerprint() {
	a := impressions.Spec{Seed: 7, NumFiles: 500, NumDirs: 100, FSSizeBytes: 1 << 20}
	b := a // same inputs, independently written
	c := a
	c.Seed = 8

	fpA, _ := impressions.SpecFingerprint(a, 4, 0)
	fpB, _ := impressions.SpecFingerprint(b, 4, 0)
	fpC, _ := impressions.SpecFingerprint(c, 4, 0)
	fmt.Println(fpA == fpB, fpA == fpC)
	// Output: true false
}

// ExampleMerge runs the whole distributed pipeline in one process: write
// the plan as its fragments and their index, execute every shard off its
// fragment, merge the manifests against the plan, and verify the merged
// digest matches a plain single-process generation.
func ExampleMerge() {
	cfg := impressions.Config{NumFiles: 300, NumDirs: 60, FSSizeBytes: 300 * 1024, Seed: 7}

	dir, _ := os.MkdirTemp("", "impressions-example")
	defer os.RemoveAll(dir)
	name := func(shard int) string { return fmt.Sprintf("plan.json.frag%d", shard) }
	plan, err := impressions.PartitionPlan(context.Background(), impressions.PlanRequest{Config: cfg, MaxShards: 3},
		func(shard int) (io.WriteCloser, error) { return os.Create(filepath.Join(dir, name(shard))) })
	if err != nil {
		fmt.Println(err)
		return
	}
	index, err := os.Create(filepath.Join(dir, "plan.json"))
	if err != nil {
		fmt.Println(err)
		return
	}
	err = plan.FragmentIndex(name).Encode(index)
	index.Close()
	if err != nil {
		fmt.Println(err)
		return
	}

	pf, err := impressions.OpenPlanFile(filepath.Join(dir, "plan.json"))
	if err != nil {
		fmt.Println(err)
		return
	}
	var manifests []*impressions.Manifest
	for shard := range plan.Shards {
		view, err := pf.View(shard)
		if err != nil {
			fmt.Println(err)
			return
		}
		res, err := impressions.Execute(context.Background(), view, impressions.DirTarget(filepath.Join(dir, "image")), impressions.WorkerOptions{})
		if err != nil {
			fmt.Println(err)
			return
		}
		manifests = append(manifests, res.Manifest)
	}
	merged, err := impressions.Merge(pf.Source(context.Background()), manifests)
	if err == nil {
		err = merged.Err()
	}
	if err != nil {
		fmt.Println(err)
		return
	}

	single, err := impressions.Generate(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	digest, err := single.Image.Digest(impressions.MaterializeOptions{Seed: cfg.Seed})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("shards:", len(plan.Shards))
	fmt.Println("deterministic:", merged.Digest == digest)
	// Output:
	// shards: 3
	// deterministic: true
}

// bufferCloser holds one fragment in memory.
type bufferCloser struct{ bytes.Buffer }

func (*bufferCloser) Close() error { return nil }

// ExamplePartitionPlan writes a plan as its fragments without ever
// retaining the image, then decodes one shard's view back out of its
// fragment — the out-of-core producer/consumer pair.
func ExamplePartitionPlan() {
	cfg := impressions.Config{NumFiles: 300, NumDirs: 60, FSSizeBytes: 300 * 1024, Seed: 7}
	frags := make([]bufferCloser, 2)
	plan, err := impressions.PartitionPlan(context.Background(), impressions.PlanRequest{Config: cfg, MaxShards: len(frags)},
		func(shard int) (io.WriteCloser, error) { return &frags[shard], nil })
	if err != nil {
		fmt.Println(err)
		return
	}

	// A worker decodes only its shard's fragment.
	view, err := impressions.DecodeShardView(&frags[1].Buffer)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("plan shards:", len(plan.Shards))
	fmt.Println("shard view bound to the plan:", view.Shard == 1 && view.Plan.Fingerprint() == plan.Fingerprint())
	// Output:
	// plan shards: 2
	// shard view bound to the plan: true
}
