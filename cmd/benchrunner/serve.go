package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"impressions/internal/content"
	"impressions/internal/core"
	"impressions/internal/distribute"
	"impressions/internal/fsimage"
	"impressions/internal/serve"
)

// The serve scenario drives a running impressionsd through its whole API
// surface and reports service-level metrics (plans/sec, cache hit rate,
// latency percentiles) as a JSON report of benchmark-shaped entries that CI
// keeps as an artifact.
//
//	benchrunner serve -base http://127.0.0.1:7077 -check -bench-json SERVE.json

// benchEntry / benchDoc are the -bench-json report: `go test -bench` rows as
// JSON (name, iterations, ns/op, custom metrics).
type benchEntry struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

type benchDoc struct {
	GeneratedAt time.Time    `json:"generated_at"`
	GOOS        string       `json:"goos,omitempty"`
	GOARCH      string       `json:"goarch,omitempty"`
	Pkg         string       `json:"pkg,omitempty"`
	CPU         string       `json:"cpu,omitempty"`
	Benchmarks  []benchEntry `json:"benchmarks"`
}

// runServe implements the `benchrunner serve` subcommand against a running
// daemon.
func runServe(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchrunner serve", flag.ContinueOnError)
	var (
		base      = fs.String("base", "http://127.0.0.1:7077", "base URL of the running impressionsd")
		check     = fs.Bool("check", false, "run the end-to-end determinism check (pull shards, execute, merge, compare digests)")
		requests  = fs.Int("requests", 40, "plan requests in the load phase")
		shards    = fs.Int("shards", 3, "shards per requested plan")
		seed      = fs.Int64("seed", 424242, "base seed for the requested specs")
		specs     = fs.Int("specs", 8, "distinct specs cycled through the load phase (controls the hit rate)")
		files     = fs.Int("files", 400, "files per requested image")
		benchJSON = fs.String("bench-json", "", "write metrics to this file in bench-json schema")
		timeout   = fs.Duration("timeout", 5*time.Minute, "overall deadline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	c := &serve.Client{Base: *base}
	readyCtx, readyCancel := context.WithTimeout(ctx, 30*time.Second)
	defer readyCancel()
	if err := c.WaitReady(readyCtx); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "serve: %s is ready\n", *base)

	specFor := func(i int) fsimage.Spec {
		return fsimage.Spec{
			Seed:        *seed + int64(i),
			NumFiles:    *files,
			NumDirs:     *files / 5,
			FSSizeBytes: int64(*files) * 2048,
		}
	}

	if *check {
		if err := serveCheck(ctx, c, specFor(0), *shards, stdout); err != nil {
			return err
		}
	}

	before, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	latencies := make([]time.Duration, 0, *requests)
	var bytesStreamed int64
	loadStart := time.Now()
	for i := 0; i < *requests; i++ {
		req := serve.PlanRequest{Spec: specFor(i % *specs), Shards: *shards}
		t0 := time.Now()
		resp, err := c.PostPlan(ctx, req)
		if err != nil {
			return fmt.Errorf("load request %d: %w", i, err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("load request %d: reading body: %w", i, err)
		}
		latencies = append(latencies, time.Since(t0))
		bytesStreamed += n
	}
	loadSecs := time.Since(loadStart).Seconds()
	after, err := c.Stats(ctx)
	if err != nil {
		return err
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) time.Duration {
		if len(latencies) == 0 {
			return 0
		}
		idx := int(p * float64(len(latencies)-1))
		return latencies[idx]
	}
	hits := after.PlanCacheHits - before.PlanCacheHits
	misses := after.PlanCacheMisses - before.PlanCacheMisses
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	plansPerSec := float64(*requests) / loadSecs

	fmt.Fprintf(stdout, "serve: %d plan requests in %.2fs (%.1f plans/sec, %.1f MB streamed)\n",
		*requests, loadSecs, plansPerSec, float64(bytesStreamed)/1e6)
	fmt.Fprintf(stdout, "serve: cache hit rate %.1f%% (%d hits, %d misses, %d built)\n",
		hitRate*100, hits, misses, after.PlansBuilt-before.PlansBuilt)
	fmt.Fprintf(stdout, "serve: latency p50 %s  p95 %s  p99 %s\n", pct(0.50), pct(0.95), pct(0.99))

	if *benchJSON == "" {
		return nil
	}
	doc := benchDoc{
		GeneratedAt: time.Now().UTC(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Pkg:         "impressions/internal/serve",
		CPU:         fmt.Sprintf("%d logical CPUs", runtime.NumCPU()),
		Benchmarks: []benchEntry{{
			Name:       "ServePlanRequest",
			Iterations: int64(*requests),
			NsPerOp:    float64(pct(0.50).Nanoseconds()),
			Metrics: map[string]float64{
				"plans_per_sec":  plansPerSec,
				"cache_hit_rate": hitRate,
				"p50_ms":         float64(pct(0.50).Nanoseconds()) / 1e6,
				"p95_ms":         float64(pct(0.95).Nanoseconds()) / 1e6,
				"p99_ms":         float64(pct(0.99).Nanoseconds()) / 1e6,
				"bytes_streamed": float64(bytesStreamed),
			},
		}},
	}
	f, err := os.Create(*benchJSON)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("writing %s: %w", *benchJSON, err)
	}
	fmt.Fprintf(stdout, "serve: wrote %s\n", *benchJSON)
	return nil
}

// serveCheck is the end-to-end determinism gate: request a plan, pull every
// shard over HTTP, execute the decoded views locally, merge the manifests,
// and require the canonical digest of an in-process single-run — then
// re-request the plan and require a cache hit.
func serveCheck(ctx context.Context, c *serve.Client, spec fsimage.Spec, shards int, stdout io.Writer) error {
	resp, err := c.PostPlan(ctx, serve.PlanRequest{Spec: spec, Shards: shards})
	if err != nil {
		return fmt.Errorf("check: PostPlan: %w", err)
	}
	planDoc, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("check: reading plan: %w", err)
	}
	fmt.Fprintf(stdout, "check: plan %s (%s, %d bytes)\n", resp.Fingerprint[:12], resp.Cache, len(planDoc))

	root, err := os.MkdirTemp("", "impressions-serve-check")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	manifests := make([]*distribute.Manifest, shards)
	for s := 0; s < shards; s++ {
		view, err := c.PullShard(ctx, resp.Fingerprint, s)
		if err != nil {
			return fmt.Errorf("check: PullShard(%d): %w", s, err)
		}
		res, err := distribute.Execute(ctx, view, distribute.DirTarget(root), distribute.WorkerOptions{})
		if err != nil {
			return fmt.Errorf("check: Execute(%d): %w", s, err)
		}
		manifests[s] = res.Manifest
	}

	decoded, err := distribute.DecodePlan(bytes.NewReader(planDoc))
	if err != nil {
		return fmt.Errorf("check: DecodePlan: %w", err)
	}
	open, err := decoded.Open()
	if err != nil {
		return fmt.Errorf("check: Open: %w", err)
	}
	merged, err := distribute.Merge(open, manifests)
	if err != nil {
		return fmt.Errorf("check: Merge: %w", err)
	}

	cfg, err := core.ConfigFromSpec(spec)
	if err != nil {
		return err
	}
	res, err := core.GenerateImageContext(ctx, cfg)
	if err != nil {
		return fmt.Errorf("check: local generate: %w", err)
	}
	localDigest, err := res.Image.Digest(fsimage.MaterializeOptions{
		Registry: content.NewRegistry(content.KindDefault),
		Seed:     spec.Seed,
		Context:  ctx,
	})
	if err != nil {
		return fmt.Errorf("check: local digest: %w", err)
	}
	if merged.Digest != localDigest {
		return fmt.Errorf("check: FAILED — served shards merged to %s, local run digests %s", merged.Digest, localDigest)
	}
	treeHash, err := fsimage.HashTree(root)
	if err != nil {
		return fmt.Errorf("check: HashTree: %w", err)
	}
	fmt.Fprintf(stdout, "check: merged digest matches local run (%s...), tree %s...\n", merged.Digest[:12], treeHash[:12])

	again, err := c.PostPlan(ctx, serve.PlanRequest{Spec: spec, Shards: shards})
	if err != nil {
		return fmt.Errorf("check: repeat PostPlan: %w", err)
	}
	io.Copy(io.Discard, again.Body)
	again.Body.Close()
	if again.Cache != "hit" {
		return fmt.Errorf("check: FAILED — repeated plan request was %q, want a cache hit", again.Cache)
	}
	fmt.Fprintln(stdout, "check: repeated plan request served from cache")
	return nil
}
