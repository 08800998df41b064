package serve

// The fleet fault-injection suite: every abuse the scheduler is built for
// — a worker killed mid-shard, dropped heartbeats, a tampered manifest, a
// double-claimed lease, a fleet with no workers at all — driven over real
// HTTP against an httptest daemon, and every case must end with the run
// converging to the single-process canonical digest.

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"impressions/internal/content"
	"impressions/internal/core"
	"impressions/internal/distribute"
	"impressions/internal/fleet"
	"impressions/internal/fsimage"
)

// fleetTestOptions are aggressive-but-stable timings for real-time tests:
// death in ~60ms, near-instant requeue backoff.
func fleetTestOptions() fleet.Options {
	return fleet.Options{
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatMisses:   3,
		LeaseTTL:          5 * time.Second,
		MaxAttempts:       5,
		BackoffBase:       time.Millisecond,
		BackoffMax:        10 * time.Millisecond,
		InlineGrace:       -1,
	}
}

// newFleetServer boots an httptest daemon with the scheduler's supervision
// loop running, mirroring cmd/impressionsd.
func newFleetServer(t *testing.T, fo fleet.Options) (*Server, *Client) {
	t.Helper()
	srv, c := newTestServer(t, Options{Fleet: fo})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go srv.Fleet().Loop(ctx, 5*time.Millisecond)
	return srv, c
}

// fleetReferenceDigest computes the local single-process digest for a spec
// — the value every fleet run must land on.
func fleetReferenceDigest(t *testing.T, spec fsimage.Spec) string {
	t.Helper()
	cfg, err := core.ConfigFromSpec(spec)
	if err != nil {
		t.Fatalf("ConfigFromSpec: %v", err)
	}
	res, err := core.GenerateImage(cfg)
	if err != nil {
		t.Fatalf("GenerateImage: %v", err)
	}
	digest, err := res.Image.Digest(fsimage.MaterializeOptions{Registry: content.NewRegistry(content.KindDefault), Seed: spec.Seed})
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}
	return digest
}

// startWorker runs an in-process fleet worker until the context ends or it
// idles out, reporting its stats on ch.
func startWorker(ctx context.Context, c *Client, opts FleetWorkerOptions, ch chan<- FleetWorkerStats) chan error {
	errc := make(chan error, 1)
	go func() {
		st, err := c.RunFleetWorker(ctx, opts)
		if ch != nil {
			ch <- st
		}
		errc <- err
	}()
	return errc
}

// TestFleetRunConverges: two workers, a clean run — one POST /v1/runs ends
// in the canonical digest.
func TestFleetRunConverges(t *testing.T) {
	_, c := newFleetServer(t, fleetTestOptions())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	spec := testSpec(7001)
	st, err := c.PostRun(ctx, PlanRequest{Spec: spec, Shards: 4})
	if err != nil {
		t.Fatalf("PostRun: %v", err)
	}
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	for i := 0; i < 2; i++ {
		startWorker(wctx, c, FleetWorkerOptions{OutRoot: t.TempDir(), Worker: distribute.WorkerOptions{Parallelism: 1, BatchFiles: 8}}, nil)
	}
	st, err = c.WaitRun(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitRun: %v", err)
	}
	if st.State != fleet.RunComplete {
		t.Fatalf("run state %s, want complete (%s)", st.State, st.Error)
	}
	if ref := fleetReferenceDigest(t, spec); st.Digest != ref {
		t.Fatalf("fleet digest %s, want single-process %s", st.Digest, ref)
	}
}

// TestFleetWorkerKilledMidShard is the headline drill: a worker dies (via
// the deterministic fail-after-files crash) partway through a shard, its
// heartbeats stop, the scheduler re-queues the shard, and a replacement
// worker — sharing the work dir — resumes from the sealed journal prefix.
// The run must converge to the single-process digest with the retry path
// demonstrably exercised.
func TestFleetWorkerKilledMidShard(t *testing.T) {
	_, c := newFleetServer(t, fleetTestOptions())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	spec := testSpec(7002)
	st, err := c.PostRun(ctx, PlanRequest{Spec: spec, Shards: 4})
	if err != nil {
		t.Fatalf("PostRun: %v", err)
	}

	outRoot, workDir := t.TempDir(), t.TempDir()
	// The victim: crashes after 20 files of its first shard. RunFleetWorker
	// returns ErrSimulatedCrash and its heartbeat goroutine stops with it —
	// the in-process equivalent of SIGKILL.
	victimErr := startWorker(ctx, c, FleetWorkerOptions{
		OutRoot: outRoot, WorkDir: workDir, Worker: distribute.WorkerOptions{Parallelism: 1, BatchFiles: 8, FailAfterFiles: 20},
	}, nil)
	if err := <-victimErr; !errors.Is(err, distribute.ErrSimulatedCrash) {
		t.Fatalf("victim worker: got %v, want ErrSimulatedCrash", err)
	}

	// The replacement shares the journal dir, so the victim's sealed
	// batches are not re-done.
	statsCh := make(chan FleetWorkerStats, 1)
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	startWorker(wctx, c, FleetWorkerOptions{OutRoot: outRoot, WorkDir: workDir, Worker: distribute.WorkerOptions{Parallelism: 1, BatchFiles: 8}}, statsCh)

	st, err = c.WaitRun(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitRun: %v", err)
	}
	if st.State != fleet.RunComplete {
		t.Fatalf("run state %s, want complete (%s)", st.State, st.Error)
	}
	if st.Requeues < 1 {
		t.Fatalf("requeues = %d; the kill did not exercise the retry path", st.Requeues)
	}
	if ref := fleetReferenceDigest(t, spec); st.Digest != ref {
		t.Fatalf("fleet digest after mid-shard kill %s, want %s", st.Digest, ref)
	}
	wcancel()
	ws := <-statsCh
	if ws.ShardsResumed < 1 {
		t.Fatalf("replacement worker resumed %d shards mid-shard; want >= 1 (journal was not used)", ws.ShardsResumed)
	}
	fs, err := c.FleetStats(ctx)
	if err != nil {
		t.Fatalf("FleetStats: %v", err)
	}
	if fs.LeasesExpired < 1 {
		t.Fatalf("LeasesExpired = %d, want >= 1", fs.LeasesExpired)
	}
}

// TestFleetDroppedHeartbeats: a raw client claims a lease and goes silent.
// The scheduler declares it dead and a live worker finishes the run.
func TestFleetDroppedHeartbeats(t *testing.T) {
	_, c := newFleetServer(t, fleetTestOptions())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	spec := testSpec(7003)
	st, err := c.PostRun(ctx, PlanRequest{Spec: spec, Shards: 2})
	if err != nil {
		t.Fatalf("PostRun: %v", err)
	}
	// The silent worker: registers, claims, never beats, never completes.
	ghost, err := c.RegisterWorker(ctx)
	if err != nil {
		t.Fatalf("RegisterWorker: %v", err)
	}
	if l, err := c.LeaseShard(ctx, ghost.WorkerID); err != nil || l == nil {
		t.Fatalf("ghost lease: %v, %v", l, err)
	}

	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	startWorker(wctx, c, FleetWorkerOptions{OutRoot: t.TempDir(), Worker: distribute.WorkerOptions{Parallelism: 1, BatchFiles: 8}}, nil)

	st, err = c.WaitRun(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitRun: %v", err)
	}
	if st.State != fleet.RunComplete {
		t.Fatalf("run state %s, want complete (%s)", st.State, st.Error)
	}
	if st.Requeues < 1 {
		t.Fatalf("requeues = %d; the dropped heartbeats never expired the ghost's lease", st.Requeues)
	}
	if ref := fleetReferenceDigest(t, spec); st.Digest != ref {
		t.Fatalf("digest %s, want %s", st.Digest, ref)
	}
}

// TestFleetTamperedManifest: a manifest altered in transit is refused with
// 422, the shard re-queued, and the honest retry converges.
func TestFleetTamperedManifest(t *testing.T) {
	fo := fleetTestOptions()
	// The tampering worker is driven by raw client calls with no heartbeat
	// loop; keep it alive so the completion is judged on the manifest, not
	// on worker death.
	fo.HeartbeatMisses = 100000
	srv, c := newFleetServer(t, fo)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	spec := testSpec(7004)
	st, err := c.PostRun(ctx, PlanRequest{Spec: spec, Shards: 2})
	if err != nil {
		t.Fatalf("PostRun: %v", err)
	}
	w, err := c.RegisterWorker(ctx)
	if err != nil {
		t.Fatalf("RegisterWorker: %v", err)
	}
	l, err := c.LeaseShard(ctx, w.WorkerID)
	if err != nil || l == nil {
		t.Fatalf("lease: %v, %v", l, err)
	}
	view, err := c.PullShard(ctx, l.Fingerprint, l.Shard)
	if err != nil {
		t.Fatalf("PullShard: %v", err)
	}
	res, err := distribute.Execute(ctx, view, distribute.TarTarget(io.Discard), distribute.WorkerOptions{})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	m := res.Manifest
	m.Bytes++ // altered after sealing
	err = c.CompleteLease(ctx, l.LeaseID, m)
	if StatusCode(err) != http.StatusUnprocessableEntity {
		t.Fatalf("tampered completion: got %v (status %d), want 422", err, StatusCode(err))
	}

	// An honest in-process worker drains the run (including the re-queued
	// shard).
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	startWorker(wctx, c, FleetWorkerOptions{OutRoot: t.TempDir(), Worker: distribute.WorkerOptions{Parallelism: 1, BatchFiles: 8}}, nil)
	st, err = c.WaitRun(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitRun: %v", err)
	}
	if st.State != fleet.RunComplete {
		t.Fatalf("run state %s, want complete (%s)", st.State, st.Error)
	}
	if ref := fleetReferenceDigest(t, spec); st.Digest != ref {
		t.Fatalf("digest %s, want %s", st.Digest, ref)
	}
	if fs := srv.Fleet().StatsSnapshot(); fs.ManifestsRejected != 1 {
		t.Fatalf("ManifestsRejected = %d, want 1", fs.ManifestsRejected)
	}
}

// TestFleetFailedShardIsGivenBack: a worker whose attempt fails — here it
// cannot create its output root — gives the lease back with the reason, so
// the shard is pending again at once. Nothing else could release it in this
// test: the lease TTL is an hour and no worker is ever declared dead. A
// second report against the same lease is 409, like a late completion.
func TestFleetFailedShardIsGivenBack(t *testing.T) {
	fo := fleetTestOptions()
	fo.LeaseTTL = time.Hour
	fo.HeartbeatMisses = 1 << 30
	fo.MaxAttempts = 50
	_, c := newFleetServer(t, fo)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	spec := testSpec(7007)
	st, err := c.PostRun(ctx, PlanRequest{Spec: spec, Shards: 2})
	if err != nil {
		t.Fatalf("PostRun: %v", err)
	}

	w, err := c.RegisterWorker(ctx)
	if err != nil {
		t.Fatalf("RegisterWorker: %v", err)
	}
	l, err := c.LeaseShard(ctx, w.WorkerID)
	if err != nil || l == nil {
		t.Fatalf("lease: %v, %v", l, err)
	}
	if err := c.FailLease(ctx, l.LeaseID, "no space left on device"); err != nil {
		t.Fatalf("FailLease: %v", err)
	}
	if err := c.FailLease(ctx, l.LeaseID, "again"); StatusCode(err) != http.StatusConflict {
		t.Fatalf("second FailLease: got %v (status %d), want 409", err, StatusCode(err))
	}
	if st, err = c.Run(ctx, st.ID); err != nil || st.Requeues != 1 || st.Shards[l.Shard].LastError != "no space left on device" {
		t.Fatalf("after FailLease: %+v, %v", st, err)
	}

	// The same through the worker loop: its output root is under a regular
	// file, so every attempt fails. It is stopped at its first failure.
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	bctx, stop := context.WithCancel(ctx)
	defer stop()
	broken := startWorker(bctx, c, FleetWorkerOptions{
		OutRoot: filepath.Join(blocker, "out"), WorkDir: t.TempDir(),
		Logf: func(format string, _ ...any) {
			if strings.Contains(format, "failed") {
				stop()
			}
		},
	}, nil)
	if err := <-broken; err != nil {
		t.Fatalf("broken worker: %v", err)
	}
	if st, err = c.Run(ctx, st.ID); err != nil || st.Requeues < 2 {
		t.Fatalf("the broken worker's attempt was not given back: %+v, %v", st, err)
	}
	for _, sh := range st.Shards {
		if sh.Phase != fleet.ShardPending {
			t.Fatalf("shard %d is %s with no worker left; want pending", sh.Shard, sh.Phase)
		}
	}

	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	startWorker(wctx, c, FleetWorkerOptions{OutRoot: t.TempDir(), Worker: distribute.WorkerOptions{Parallelism: 1, BatchFiles: 8}}, nil)
	st, err = c.WaitRun(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitRun: %v", err)
	}
	if st.State != fleet.RunComplete {
		t.Fatalf("run state %s, want complete (%s)", st.State, st.Error)
	}
	if ref := fleetReferenceDigest(t, spec); st.Digest != ref {
		t.Fatalf("digest %s, want %s", st.Digest, ref)
	}
}

// TestFleetDoubleClaimedLease: when a lease blows its per-attempt deadline
// and the shard is re-leased, the first holder's late completion is refused
// with 409 — exactly one manifest per shard is ever trusted.
func TestFleetDoubleClaimedLease(t *testing.T) {
	fo := fleetTestOptions()
	fo.LeaseTTL = 100 * time.Millisecond
	fo.HeartbeatMisses = 1000 // only the deadline can expire leases here
	_, c := newFleetServer(t, fo)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	spec := testSpec(7005)
	st, err := c.PostRun(ctx, PlanRequest{Spec: spec, Shards: 1})
	if err != nil {
		t.Fatalf("PostRun: %v", err)
	}
	slow, err := c.RegisterWorker(ctx)
	if err != nil {
		t.Fatalf("RegisterWorker: %v", err)
	}
	stale, err := c.LeaseShard(ctx, slow.WorkerID)
	if err != nil || stale == nil {
		t.Fatalf("lease: %v, %v", stale, err)
	}
	// Outlive the lease; the scheduler re-queues the shard.
	waitFor(t, func() bool {
		rs, err := c.Run(ctx, st.ID)
		return err == nil && rs.Requeues >= 1
	})

	// Prepare the honest manifest up front — the fresh lease's 100ms TTL
	// must cover only the claim and the upload, not the digest work.
	view, err := c.PullShard(ctx, stale.Fingerprint, stale.Shard)
	if err != nil {
		t.Fatalf("PullShard: %v", err)
	}
	res, err := distribute.Execute(ctx, view, distribute.TarTarget(io.Discard), distribute.WorkerOptions{})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	m := res.Manifest

	// The slow worker surfaces with its stale lease: refused, shard state
	// untouched.
	if err := c.CompleteLease(ctx, stale.LeaseID, m); StatusCode(err) != http.StatusConflict {
		t.Fatalf("stale completion: got %v (status %d), want 409", err, StatusCode(err))
	}

	// Second claim wins the shard.
	fast, err := c.RegisterWorker(ctx)
	if err != nil {
		t.Fatalf("RegisterWorker: %v", err)
	}
	var fresh *fleet.Lease
	waitFor(t, func() bool {
		fresh, err = c.LeaseShard(ctx, fast.WorkerID)
		return err == nil && fresh != nil
	})
	if err := c.CompleteLease(ctx, fresh.LeaseID, m); err != nil {
		t.Fatalf("fresh completion: %v", err)
	}
	rs, err := c.WaitRun(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitRun: %v", err)
	}
	if rs.State != fleet.RunComplete {
		t.Fatalf("run state %s, want complete (%s)", rs.State, rs.Error)
	}
	if ref := fleetReferenceDigest(t, spec); rs.Digest != ref {
		t.Fatalf("digest %s, want %s", rs.Digest, ref)
	}
}

// TestFleetInlineFallback: a run submitted to a fleet with zero live
// workers is finished daemon-side after the grace window instead of
// hanging — and still produces the canonical digest.
func TestFleetInlineFallback(t *testing.T) {
	fo := fleetTestOptions()
	fo.InlineGrace = 50 * time.Millisecond
	srv, c := newFleetServer(t, fo)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	spec := testSpec(7006)
	st, err := c.PostRun(ctx, PlanRequest{Spec: spec, Shards: 3})
	if err != nil {
		t.Fatalf("PostRun: %v", err)
	}
	st, err = c.WaitRun(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitRun: %v", err)
	}
	if st.State != fleet.RunComplete {
		t.Fatalf("run state %s, want complete (%s)", st.State, st.Error)
	}
	if ref := fleetReferenceDigest(t, spec); st.Digest != ref {
		t.Fatalf("inline digest %s, want %s", st.Digest, ref)
	}
	if fs := srv.Fleet().StatsSnapshot(); fs.InlineShards != 3 {
		t.Fatalf("InlineShards = %d, want 3", fs.InlineShards)
	}
}

// TestReadyzSplitsFromHealthz: /healthz is liveness (green the whole way
// down); /readyz flips 503 the moment the server starts draining.
func TestReadyzSplitsFromHealthz(t *testing.T) {
	srv, c := newTestServer(t, Options{})
	get := func(path string) int {
		resp, err := c.http().Get(c.Base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", got)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", got)
	}
	srv.SetReady(false)
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz while draining = %d, want 200 (liveness is not readiness)", got)
	}
	srv.SetReady(true)
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz after recovery = %d, want 200", got)
	}
}

// TestClientRetriesTransient: idempotent calls retry connection-level and
// gateway-style failures; state transitions never do.
func TestClientRetriesTransient(t *testing.T) {
	var calls atomic.Int32
	var failFirst int32 = 2
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n <= failFirst {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("{}"))
	}))
	t.Cleanup(ts.Close)
	c := &Client{Base: ts.URL, HTTP: ts.Client(), Retries: 4, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond}
	ctx := context.Background()

	if _, err := c.Stats(ctx); err != nil {
		t.Fatalf("Stats should have retried through two 503s: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("idempotent call made %d attempts, want 3 (2 failures + 1 success)", got)
	}

	// A lease completion must NOT be retried: one 503 is final.
	calls.Store(0)
	failFirst = 100
	err := c.CompleteLease(ctx, "lease-x", &distribute.Manifest{})
	if StatusCode(err) != http.StatusServiceUnavailable {
		t.Fatalf("CompleteLease: got %v, want a surfaced 503", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("non-idempotent call made %d attempts, want exactly 1", got)
	}

	// Connection-level failures (refused) retry too — and give up cleanly
	// when the server never comes back.
	dead := &Client{Base: "http://127.0.0.1:1", Retries: 2, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond}
	if _, err := dead.Stats(ctx); err == nil {
		t.Fatal("Stats against a dead server: want an error")
	}
}
