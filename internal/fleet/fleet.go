// Package fleet is the shard scheduler over unreliable workers: it tracks
// per-shard state (pending → leased → committed), re-queues a shard whose
// attempt failed, expired or was refused with capped exponential backoff
// plus jitter, fails the run when a shard is out of attempts, verifies every
// manifest before trusting it, and merges a completed run into the canonical
// image digest. A run that loses workers must still converge on the
// byte-identical digest a single process produces. A run holds O(shards) of
// its plan — a distribute.ManifestCheck and the distribute.PlanSource the
// merge replays — never its records.
//
// Two transports drive the one state machine through the same calls
// (Register, Lease, Complete, Fail). Over HTTP (internal/serve mounts the
// scheduler behind the daemon's API) workers are remote and may vanish
// without a word, so liveness is the scheduler's to judge: workers
// heartbeat, and Tick expires the leases of the silent and the overdue.
// Locally (RunSlots, which `impressions distrun` runs over its worker
// processes) a worker is a child process whose death is its exit status, so
// there are no heartbeats and no Tick: the slot that holds a lease bounds the
// attempt by the lease's TTL, kills the process at the deadline and says so
// with Fail.
//
// The scheduler is clock-injectable, so every failure path — missed
// heartbeats, expired leases, failed attempts, double claims, tampered
// manifests, zero live workers — is deterministic under test.
package fleet

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"impressions/internal/backoff"
	"impressions/internal/distribute"
	"impressions/internal/fsimage"
)

// Sentinel errors, mapped to HTTP statuses by the serving layer.
var (
	// ErrUnknownWorker reports a heartbeat or lease claim from a worker ID
	// the scheduler does not know (it should re-register).
	ErrUnknownWorker = errors.New("fleet: unknown worker")
	// ErrUnknownRun reports a status request for a run ID that never existed.
	ErrUnknownRun = errors.New("fleet: unknown run")
	// ErrLeaseInvalid reports a completion against a lease that expired, was
	// superseded by a re-queue, or never existed — the double-claim guard.
	ErrLeaseInvalid = errors.New("fleet: lease is no longer current")
	// ErrManifestRejected reports an uploaded manifest that failed
	// server-side verification; its shard is re-queued.
	ErrManifestRejected = errors.New("fleet: manifest rejected")
	// ErrTooManyRuns reports the active-run cap.
	ErrTooManyRuns = errors.New("fleet: too many active runs")
)

// maxRuns caps concurrently active runs: each holds the manifests it has
// committed until it merges.
const maxRuns = 8

// InlineWorkerName is the synthetic worker name the scheduler's inline
// fallback executor leases under.
const InlineWorkerName = "inline"

// expiryWindow bounds the lease-expiry latency samples kept for p50/p95.
const expiryWindow = 1024

// Options tunes the scheduler. The zero value selects production-ish
// defaults; tests shrink every duration.
type Options struct {
	// HeartbeatInterval is the cadence advertised to workers (default 2s).
	HeartbeatInterval time.Duration
	// HeartbeatMisses is how many intervals may elapse without a beat
	// before a worker is dead and its leases expire (default 3).
	HeartbeatMisses int
	// LeaseTTL is the per-attempt deadline for one shard lease (default 2m;
	// distrun's -shard-timeout).
	LeaseTTL time.Duration
	// MaxAttempts is how many granted leases a shard may consume before the
	// run fails (default 5; distrun's -retries plus the first attempt).
	MaxAttempts int
	// BackoffBase / BackoffMax shape the re-queue delay: attempt k waits
	// min(BackoffMax, BackoffBase·2^(k-1)) with jitter in [d/2, d]
	// (defaults 500ms / 15s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// InlineGrace is how long a run's shards may sit pending with zero live
	// workers before the scheduler executes them inline (default 5s;
	// requires InlineExecute). Negative disables the fallback.
	InlineGrace time.Duration
	// InlineExecute computes one shard's manifest daemon-side (digest-only,
	// no disk) for the zero-worker fallback. The serving layer provides it
	// and bounds it with its own worker pool.
	InlineExecute func(ctx context.Context, fingerprint string, shard int) (*distribute.Manifest, error)
	// WorkerCommand renders the standalone re-run command a run status
	// names for an outstanding shard. The serving layer fills in how to
	// fetch the plan, distrun the files of its work directory; a default
	// covers tests.
	WorkerCommand func(fingerprint string, shard int) string
	// Clock overrides time.Now for tests.
	Clock func() time.Time
	// Jitter draws the backoff jitter (uniform in [0, n)); the default is a
	// private seeded source (backoff.NewJitter), never the global math/rand.
	// Tests inject a deterministic one to pin re-queue timing.
	Jitter backoff.Jitter
	// Logf, when non-nil, receives scheduler event lines.
	Logf func(format string, a ...any)
}

func (opts Options) withDefaults() Options {
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = 2 * time.Second
	}
	if opts.HeartbeatMisses <= 0 {
		opts.HeartbeatMisses = 3
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 2 * time.Minute
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 5
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 500 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 15 * time.Second
	}
	if opts.InlineGrace == 0 {
		opts.InlineGrace = 5 * time.Second
	}
	if opts.WorkerCommand == nil {
		opts.WorkerCommand = func(fp string, shard int) string {
			return fmt.Sprintf("impressions worker -plan plan.json -shard %d -out <out> -manifest manifest-%d.json", shard, shard)
		}
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.Jitter == nil {
		opts.Jitter = backoff.NewJitter()
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return opts
}

type workerState struct {
	id       string
	lastBeat time.Time
	dead     bool
}

type lease struct {
	id        string
	runID     string
	shard     int
	workerID  string
	grantedAt time.Time
	deadline  time.Time
}

type shardState struct {
	phase     ShardPhase
	attempts  int
	notBefore time.Time // backoff gate while pending
	leaseID   string
	worker    string
	lastErr   string
	manifest  *distribute.Manifest
}

type run struct {
	id          string
	fingerprint string
	check       *distribute.ManifestCheck // dropped once the run finishes
	source      distribute.PlanSource     // what the merge replays; dropped likewise
	shards      []shardState
	state       RunState
	digest      string
	report      *fsimage.Report // with the digest, what a finished run keeps
	errMsg      string
	requeues    int
	createdAt   time.Time
	finishedAt  time.Time
	merging     bool
	// idleSince tracks when the run last saw worker progress, for the
	// inline-fallback grace window.
	idleSince time.Time
}

// Scheduler is the fleet's brain: every mutation happens under one lock,
// and all time flows through Options.Clock, so the whole failure matrix is
// unit-testable without sleeping.
type Scheduler struct {
	opts Options

	mu      sync.Mutex
	runs    map[string]*run
	runIDs  []string // creation order, for fair-ish lease scans
	workers map[string]*workerState
	leases  map[string]*lease

	// inlineCtx is the lifecycle context inline executions inherit; set by
	// Loop (or SetContext in tests).
	inlineCtx context.Context

	runsCompleted     int64
	runsFailed        int64
	leasesGranted     int64
	leasesExpired     int64
	requeues          int64
	shardsCommitted   int64
	manifestsRejected int64
	inlineShards      int64
	expiryLat         []time.Duration // ring, newest appended, capped at expiryWindow
}

// New returns a scheduler; start its Loop (or drive Tick) to get expiry
// and fallback behavior.
func New(opts Options) *Scheduler {
	return &Scheduler{
		opts:      opts.withDefaults(),
		runs:      map[string]*run{},
		workers:   map[string]*workerState{},
		leases:    map[string]*lease{},
		inlineCtx: context.Background(),
	}
}

// Options returns the resolved options (for the serving layer's wire
// responses).
func (s *Scheduler) Options() Options { return s.opts }

func randID(prefix string) string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("fleet: reading random id: %v", err))
	}
	return prefix + "-" + hex.EncodeToString(b[:])
}

// Register adds a worker and returns its identity and cadence contract.
func (s *Scheduler) Register() RegisterResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := &workerState{id: randID("w"), lastBeat: s.opts.Clock()}
	s.workers[w.id] = w
	s.opts.Logf("fleet: worker %s registered", w.id)
	return RegisterResponse{
		WorkerID:        w.id,
		HeartbeatMillis: s.opts.HeartbeatInterval.Milliseconds(),
		LeaseTTLMillis:  s.opts.LeaseTTL.Milliseconds(),
		PollMillis:      max(s.opts.HeartbeatInterval.Milliseconds()/2, 50),
	}
}

// Heartbeat renews a worker's liveness.
func (s *Scheduler) Heartbeat(workerID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.workers[workerID]
	if !ok {
		return fmt.Errorf("%w (%s)", ErrUnknownWorker, workerID)
	}
	w.lastBeat = s.opts.Clock()
	if w.dead {
		// A worker back from the dead is just a worker: its old leases are
		// gone (expired when it died), but it may pull new ones.
		w.dead = false
		s.opts.Logf("fleet: worker %s resumed heartbeating", workerID)
	}
	return nil
}

// CreateRun registers a run over the plan src replays. fingerprint is the
// plan's content address as workers fetch it (the /v1/plans/{fp} key) — it
// is what leases, re-run commands, and the inline executor carry;
// manifest-to-plan binding is enforced separately, against the plan's own
// fingerprint. One replay here holds the plan to its records and keeps, per
// shard, what every uploaded manifest is verified against; the merge
// replays src again when the last shard commits.
func (s *Scheduler) CreateRun(fingerprint string, src distribute.PlanSource) (string, error) {
	check, err := distribute.NewManifestCheck(src)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	active := 0
	for _, r := range s.runs {
		if r.state == RunRunning {
			active++
		}
	}
	if active >= maxRuns {
		return "", fmt.Errorf("%w (%d active, cap %d)", ErrTooManyRuns, active, maxRuns)
	}
	now := s.opts.Clock()
	r := &run{
		id:          randID("run"),
		fingerprint: fingerprint,
		check:       check,
		source:      src,
		shards:      make([]shardState, len(check.Plan.Shards)),
		state:       RunRunning,
		createdAt:   now,
		idleSince:   now,
	}
	for i := range r.shards {
		r.shards[i] = shardState{phase: ShardPending}
	}
	s.runs[r.id] = r
	s.runIDs = append(s.runIDs, r.id)
	s.opts.Logf("fleet: run %s created (%d shards, fingerprint %.12s)", r.id, len(r.shards), r.fingerprint)
	return r.id, nil
}

// Lease grants the worker one pending shard attempt, or returns (nil, nil)
// when no work is ready. Claiming also counts as a heartbeat.
func (s *Scheduler) Lease(workerID string) (*Lease, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.workers[workerID]
	if !ok {
		return nil, fmt.Errorf("%w (%s)", ErrUnknownWorker, workerID)
	}
	now := s.opts.Clock()
	w.lastBeat = now
	w.dead = false
	for _, id := range s.runIDs {
		r := s.runs[id]
		if r.state != RunRunning {
			continue
		}
		for shard := range r.shards {
			st := &r.shards[shard]
			if st.phase != ShardPending || now.Before(st.notBefore) {
				continue
			}
			return s.grantLocked(r, shard, workerID, now), nil
		}
	}
	return nil, nil
}

// grantLocked moves one pending shard to leased for the given worker.
func (s *Scheduler) grantLocked(r *run, shard int, workerID string, now time.Time) *Lease {
	st := &r.shards[shard]
	l := &lease{
		id:        randID("lease"),
		runID:     r.id,
		shard:     shard,
		workerID:  workerID,
		grantedAt: now,
		deadline:  now.Add(s.opts.LeaseTTL),
	}
	s.leases[l.id] = l
	st.phase = ShardLeased
	st.attempts++
	st.leaseID = l.id
	st.worker = workerID
	s.leasesGranted++
	s.opts.Logf("fleet: run %s shard %d leased to %s (attempt %d)", r.id, shard, workerID, st.attempts)
	return &Lease{
		LeaseID:     l.id,
		RunID:       r.id,
		Fingerprint: r.fingerprint,
		Shard:       shard,
		Attempt:     st.attempts,
		TTLMillis:   s.opts.LeaseTTL.Milliseconds(),
	}
}

// Complete commits a manifest against a lease. The manifest is verified
// against the run's plan before anything is trusted; a stale or superseded
// lease is rejected (ErrLeaseInvalid), a bad manifest re-queues its shard
// (ErrManifestRejected). When the last shard commits, the run merges into
// its canonical digest and sheds its manifests and its hold on the plan.
func (s *Scheduler) Complete(leaseID string, m *distribute.Manifest) error {
	s.mu.Lock()
	r, l, err := s.claimLocked(leaseID)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	var refused string
	if m == nil || m.Shard != l.shard {
		got := -1
		if m != nil {
			got = m.Shard
		}
		refused = fmt.Sprintf("manifest is for shard %d, lease is for shard %d", got, l.shard)
	} else if err := r.check.Verify(m); err != nil {
		refused = err.Error()
	}
	if refused != "" {
		s.manifestsRejected++
		s.requeueLocked(r, l.shard, "manifest rejected: "+refused)
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrManifestRejected, refused)
	}
	st := &r.shards[l.shard]
	st.phase = ShardCommitted
	st.manifest = m
	st.worker = l.workerID
	st.leaseID = ""
	st.lastErr = ""
	r.idleSince = s.opts.Clock()
	s.shardsCommitted++
	s.opts.Logf("fleet: run %s shard %d committed by %s", r.id, l.shard, l.workerID)
	allDone := true
	for i := range r.shards {
		if r.shards[i].phase != ShardCommitted {
			allDone = false
			break
		}
	}
	if !allDone || r.merging {
		s.mu.Unlock()
		return nil
	}
	r.merging = true
	src := r.source
	manifests := make([]*distribute.Manifest, len(r.shards))
	for i := range r.shards {
		manifests[i] = r.shards[i].manifest
	}
	s.mu.Unlock()

	// The merge is a replay of the plan and O(image) hashing; do it outside
	// the scheduler lock so a big run completing never stalls heartbeats and
	// lease claims.
	res, err := distribute.Merge(src, manifests)
	if err == nil {
		err = res.Err()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	r.finishedAt = s.opts.Clock()
	if err != nil {
		r.state = RunFailed
		r.errMsg = fmt.Sprintf("merging verified manifests: %v", err)
		s.runsFailed++
	} else {
		r.state = RunComplete
		r.digest = res.Digest
		// A copy: a pointer into res would keep the manifests alive with it.
		rep := res.Report
		r.report = &rep
		s.runsCompleted++
	}
	// A finished run sheds what it held for the merge: the digest and the
	// report are the product.
	r.check, r.source = nil, nil
	for i := range r.shards {
		r.shards[i].manifest = nil
	}
	s.opts.Logf("fleet: run %s %s (digest %.12s)", r.id, r.state, r.digest)
	return nil
}

// Fail gives a lease back: the attempt ended without a manifest (the worker
// exited non-zero, was killed at its deadline, could not pull the shard),
// and its holder says so instead of letting the lease run out. The shard
// re-queues exactly as after an expiry — same attempt count, backoff and
// run failure at MaxAttempts. A lease that is no longer current is
// ErrLeaseInvalid and changes nothing.
func (s *Scheduler) Fail(leaseID, reason string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, l, err := s.claimLocked(leaseID)
	if err != nil {
		return err
	}
	s.requeueLocked(r, l.shard, reason)
	return nil
}

// claimLocked takes leaseID out of the lease table and returns its run and
// lease if it is still the one its shard is leased under.
func (s *Scheduler) claimLocked(leaseID string) (*run, *lease, error) {
	l, ok := s.leases[leaseID]
	if !ok {
		return nil, nil, fmt.Errorf("%w (lease %s)", ErrLeaseInvalid, leaseID)
	}
	delete(s.leases, leaseID)
	r := s.runs[l.runID]
	if st := &r.shards[l.shard]; r.state != RunRunning || st.phase != ShardLeased || st.leaseID != leaseID {
		// The lease object survived but the shard moved on (or the run
		// ended) — a double claim or a report racing its own expiry.
		return nil, nil, fmt.Errorf("%w (lease %s superseded)", ErrLeaseInvalid, leaseID)
	}
	return r, l, nil
}

// requeueLocked sends a leased shard back to pending with backoff, or
// fails the run when the shard is out of attempts.
func (s *Scheduler) requeueLocked(r *run, shard int, reason string) {
	st := &r.shards[shard]
	st.phase = ShardPending
	st.leaseID = ""
	st.worker = ""
	st.lastErr = reason
	r.requeues++
	s.requeues++
	if st.attempts >= s.opts.MaxAttempts {
		if r.state == RunRunning {
			r.state = RunFailed
			r.errMsg = fmt.Sprintf("shard %d failed %d attempt(s), giving up: %s", shard, st.attempts, reason)
			r.finishedAt = s.opts.Clock()
			s.runsFailed++
			s.opts.Logf("fleet: run %s failed: %s", r.id, r.errMsg)
		}
		return
	}
	st.notBefore = s.opts.Clock().Add(s.backoff(st.attempts))
	s.opts.Logf("fleet: run %s shard %d re-queued (attempt %d): %s", r.id, shard, st.attempts, reason)
}

// backoff returns the capped exponential re-queue delay with jitter in
// [d/2, d] for the given completed attempt count.
func (s *Scheduler) backoff(attempt int) time.Duration {
	return backoff.Delay(s.opts.BackoffBase, s.opts.BackoffMax, attempt, s.opts.Jitter)
}

// SetContext sets the lifecycle context inline executions inherit (Loop
// does this automatically).
func (s *Scheduler) SetContext(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inlineCtx = ctx
}

// Loop drives Tick every interval until ctx ends — the daemon runs this in
// a background goroutine.
func (s *Scheduler) Loop(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	s.SetContext(ctx)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.Tick()
		}
	}
}

// Tick runs one supervision pass: expire dead workers and overdue leases
// (re-queueing their shards), and dispatch the inline fallback for runs
// starved of live workers.
func (s *Scheduler) Tick() {
	s.mu.Lock()
	now := s.opts.Clock()

	// Workers that missed their heartbeat budget are dead; death expires
	// every lease they hold, immediately — waiting out the lease TTL would
	// add nothing but latency.
	deadline := s.opts.HeartbeatInterval * time.Duration(s.opts.HeartbeatMisses)
	for _, w := range s.workers {
		if !w.dead && now.Sub(w.lastBeat) > deadline {
			w.dead = true
			s.opts.Logf("fleet: worker %s missed %d heartbeats — marking dead", w.id, s.opts.HeartbeatMisses)
		}
	}
	for id, l := range s.leases {
		w := s.workers[l.workerID]
		expired := now.After(l.deadline)
		// The inline worker is the scheduler itself — it has no heartbeat,
		// only the per-attempt deadline.
		died := l.workerID != InlineWorkerName && (w == nil || w.dead)
		if !expired && !died {
			continue
		}
		r, _, err := s.claimLocked(id)
		if err != nil {
			continue
		}
		s.leasesExpired++
		s.expiryLat = append(s.expiryLat, now.Sub(l.grantedAt))
		if len(s.expiryLat) > expiryWindow {
			s.expiryLat = s.expiryLat[len(s.expiryLat)-expiryWindow:]
		}
		reason := fmt.Sprintf("lease expired after %s (per-attempt deadline)", s.opts.LeaseTTL)
		if died {
			reason = fmt.Sprintf("worker %s died (missed heartbeats)", l.workerID)
		}
		s.requeueLocked(r, l.shard, reason)
	}

	// Inline fallback: a run whose shards sit pending with zero live
	// workers would otherwise hang forever. After the grace window the
	// scheduler leases those shards to itself and computes digest-only
	// manifests daemon-side (bounded by the serving layer's worker pool).
	var dispatch []*Lease
	if s.opts.InlineExecute != nil && s.opts.InlineGrace >= 0 && s.liveWorkersLocked() == 0 {
		for _, id := range s.runIDs {
			r := s.runs[id]
			if r.state != RunRunning || now.Sub(r.idleSince) < s.opts.InlineGrace {
				continue
			}
			for shard := range r.shards {
				st := &r.shards[shard]
				if st.phase != ShardPending || now.Before(st.notBefore) {
					continue
				}
				dispatch = append(dispatch, s.grantLocked(r, shard, InlineWorkerName, now))
			}
		}
	}
	ctx := s.inlineCtx
	s.mu.Unlock()

	for _, l := range dispatch {
		s.mu.Lock()
		s.inlineShards++
		s.mu.Unlock()
		go s.runInline(ctx, l)
	}
}

// runInline executes one inline-fallback shard and commits it through the
// same verification path workers use.
func (s *Scheduler) runInline(ctx context.Context, l *Lease) {
	m, err := s.opts.InlineExecute(ctx, l.Fingerprint, l.Shard)
	if err != nil {
		// An expiry may have beaten us to the requeue; then there is nothing to say.
		_ = s.Fail(l.LeaseID, fmt.Sprintf("inline execution: %v", err))
		return
	}
	if err := s.Complete(l.LeaseID, m); err != nil {
		s.opts.Logf("fleet: inline shard %d of run %s not committed: %v", l.Shard, l.RunID, err)
	}
}

// liveWorkersLocked counts workers that are currently heartbeating.
func (s *Scheduler) liveWorkersLocked() int {
	n := 0
	for _, w := range s.workers {
		if !w.dead {
			n++
		}
	}
	return n
}

// Status reports a run.
func (s *Scheduler) Status(runID string) (RunStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[runID]
	if !ok {
		return RunStatus{}, fmt.Errorf("%w (%s)", ErrUnknownRun, runID)
	}
	now := s.opts.Clock()
	end := now
	if !r.finishedAt.IsZero() {
		end = r.finishedAt
	}
	st := RunStatus{
		ID:            r.id,
		Fingerprint:   r.fingerprint,
		State:         r.state,
		Shards:        make([]RunShard, len(r.shards)),
		TotalShards:   len(r.shards),
		Requeues:      r.requeues,
		Digest:        r.digest,
		Error:         r.errMsg,
		ElapsedMillis: end.Sub(r.createdAt).Milliseconds(),
	}
	for i := range r.shards {
		sh := &r.shards[i]
		st.Shards[i] = RunShard{Shard: i, Phase: sh.phase, Attempts: sh.attempts, Worker: sh.worker, LastError: sh.lastErr}
		if sh.phase == ShardCommitted {
			st.Committed++
		} else {
			st.Outstanding = append(st.Outstanding, Outstanding{
				Shard:    i,
				Attempts: sh.attempts,
				Command:  s.opts.WorkerCommand(r.fingerprint, i),
			})
		}
	}
	return st, nil
}

// StatsSnapshot reports fleet-wide counters.
func (s *Scheduler) StatsSnapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		WorkersLive:       s.liveWorkersLocked(),
		WorkersTotal:      len(s.workers),
		RunsCompleted:     s.runsCompleted,
		RunsFailed:        s.runsFailed,
		LeasesGranted:     s.leasesGranted,
		LeasesExpired:     s.leasesExpired,
		Requeues:          s.requeues,
		ShardsCommitted:   s.shardsCommitted,
		ManifestsRejected: s.manifestsRejected,
		InlineShards:      s.inlineShards,
	}
	for _, r := range s.runs {
		if r.state == RunRunning {
			st.RunsActive++
		}
	}
	if n := len(s.expiryLat); n > 0 {
		lat := make([]time.Duration, n)
		copy(lat, s.expiryLat)
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		st.LeaseExpiryP50Millis = float64(lat[n/2].Microseconds()) / 1e3
		st.LeaseExpiryP95Millis = float64(lat[(n*95)/100].Microseconds()) / 1e3
	}
	return st
}
