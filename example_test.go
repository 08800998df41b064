package impressions_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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

// ExampleMerge runs the whole distributed pipeline in one process: stream
// the plan, execute every shard off its pruned view, merge the manifests
// against the plan document, and verify the merged digest matches a plain
// single-process generation.
func ExampleMerge() {
	cfg := impressions.Config{NumFiles: 300, NumDirs: 60, FSSizeBytes: 300 * 1024, Seed: 7}

	dir, _ := os.MkdirTemp("", "impressions-example")
	defer os.RemoveAll(dir)
	planPath := filepath.Join(dir, "plan.json")
	f, err := os.Create(planPath)
	if err != nil {
		fmt.Println(err)
		return
	}
	plan, err := impressions.PlanRequest{Config: cfg, MaxShards: 3}.Stream(context.Background(), f)
	f.Close()
	if err != nil {
		fmt.Println(err)
		return
	}

	var manifests []*impressions.Manifest
	for shard := range plan.Shards {
		view, err := impressions.LoadPlanShard(planPath, shard)
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
	doc, err := os.Open(planPath)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer doc.Close()
	merged, err := impressions.Merge(impressions.DocumentSource(doc), manifests)
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

// ExamplePlanRequest_Stream writes a plan document without ever retaining
// the image, then decodes one shard's pruned view back out of it — the
// out-of-core producer/consumer pair.
func ExamplePlanRequest_Stream() {
	cfg := impressions.Config{NumFiles: 300, NumDirs: 60, FSSizeBytes: 300 * 1024, Seed: 7}

	dir, _ := os.MkdirTemp("", "impressions-example")
	defer os.RemoveAll(dir)
	planPath := filepath.Join(dir, "plan.json")

	f, err := os.Create(planPath)
	if err != nil {
		fmt.Println(err)
		return
	}
	req := impressions.PlanRequest{Config: cfg, MaxShards: 2}
	plan, err := req.Stream(context.Background(), f)
	if err != nil {
		fmt.Println(err)
		return
	}
	f.Close()

	// A worker decodes only its shard from the plan file, then the shard
	// round-trips through its own self-contained wire document.
	view, err := impressions.LoadPlanShard(planPath, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	var doc bytes.Buffer
	if err := view.Encode(&doc); err != nil {
		fmt.Println(err)
		return
	}
	decoded, err := impressions.DecodeShardView(&doc)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("streamed plan shards:", len(plan.Shards))
	fmt.Println("shard view bound to same plan:", decoded.Plan.Fingerprint() == plan.Fingerprint())
	// Output:
	// streamed plan shards: 2
	// shard view bound to same plan: true
}
