package fleet

// The supervision matrix of the local transport, on fake executors: no
// worker process is started and nothing sleeps. The scheduler's clock is the
// fake one and never moves; the only real time is the lease TTL of the
// deadline cases, which the slot turns into a context deadline.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"impressions/internal/distribute"
)

// TestFailRequeuesAfterBackoff: a lease given back is re-granted once the
// backoff has passed, which is long before its TTL would have; a Fail on a
// lease that is no longer current changes nothing; and a shard that fails
// MaxAttempts times fails the run with the shard and the reason.
func TestFailRequeuesAfterBackoff(t *testing.T) {
	clk := newFakeClock()
	opts := testOptions(clk)
	opts.MaxAttempts = 2
	opts.Jitter = func(int64) int64 { return 0 } // backoff is exactly BackoffBase/2
	s := New(opts)
	open := openTestPlan(t, 1)
	id, err := s.CreateRun(open.Plan.Fingerprint(), open)
	if err != nil {
		t.Fatalf("CreateRun: %v", err)
	}
	w := s.Register()
	first, err := s.Lease(w.WorkerID)
	if err != nil || first == nil {
		t.Fatalf("Lease: %v, %v", first, err)
	}
	if err := s.Fail(first.LeaseID, "pull failed: connection reset"); err != nil {
		t.Fatalf("Fail: %v", err)
	}
	st, _ := s.Status(id)
	if st.Requeues != 1 || st.Shards[0].Phase != ShardPending || st.Shards[0].LastError != "pull failed: connection reset" {
		t.Fatalf("after Fail: %+v", st.Shards[0])
	}
	if l, _ := s.Lease(w.WorkerID); l != nil {
		t.Fatal("the shard was re-granted before its backoff had passed")
	}
	clk.Advance(opts.BackoffBase) // a sixtieth of the TTL; no Tick has run
	second, err := s.Lease(w.WorkerID)
	if err != nil || second == nil || second.Attempt != 2 {
		t.Fatalf("Lease after the backoff: %+v, %v", second, err)
	}

	if err := s.Fail(first.LeaseID, "late"); !errors.Is(err, ErrLeaseInvalid) {
		t.Fatalf("Fail on the superseded lease: got %v, want ErrLeaseInvalid", err)
	}
	if st, _ = s.Status(id); st.Requeues != 1 || st.Shards[0].Phase != ShardLeased || st.Shards[0].Attempts != 2 {
		t.Fatalf("a refused Fail changed the shard: %+v", st.Shards[0])
	}

	if err := s.Fail(second.LeaseID, "disk full"); err != nil {
		t.Fatalf("Fail: %v", err)
	}
	st, _ = s.Status(id)
	if st.State != RunFailed || !strings.Contains(st.Error, "shard 0") || !strings.Contains(st.Error, "disk full") {
		t.Fatalf("after MaxAttempts failures: state %s, error %q", st.State, st.Error)
	}
	if err := s.Fail(second.LeaseID, "again"); !errors.Is(err, ErrLeaseInvalid) {
		t.Fatalf("Fail on a settled lease: got %v, want ErrLeaseInvalid", err)
	}
}

// slotRun is one RunSlots call over a fresh scheduler and a three-shard plan.
type slotRun struct {
	s       *Scheduler
	open    *distribute.OpenPlan
	id      string
	workDir string
	honest  []*distribute.Manifest // each shard's true manifest
	// calls counts a shard's attempts; inFlight the executors that have not
	// returned.
	mu       sync.Mutex
	calls    map[int]int
	inFlight atomic.Int32
}

// slotPlan is the plan every slotRun schedules, with its true manifests:
// built once, the scheduler only reads it.
var slotPlan struct {
	once   sync.Once
	open   *distribute.OpenPlan
	honest []*distribute.Manifest
}

func newSlotRun(t *testing.T, maxAttempts int, ttl time.Duration) *slotRun {
	t.Helper()
	slotPlan.once.Do(func() {
		slotPlan.open = openTestPlan(t, 3)
		for shard := range slotPlan.open.Plan.Shards {
			slotPlan.honest = append(slotPlan.honest, manifestFor(t, slotPlan.open, shard))
		}
	})
	opts := testOptions(newFakeClock())
	opts.MaxAttempts, opts.LeaseTTL = maxAttempts, ttl
	opts.BackoffBase, opts.BackoffMax = time.Nanosecond, time.Nanosecond // retry at once: the clock stands still
	r := &slotRun{s: New(opts), open: slotPlan.open, honest: slotPlan.honest, workDir: t.TempDir(), calls: map[int]int{}}
	id, err := r.s.CreateRun(r.open.Plan.Fingerprint(), r.open)
	if err != nil {
		t.Fatalf("CreateRun: %v", err)
	}
	r.id = id
	return r
}

// run drives the run with stage deciding each attempt: it returns the
// manifest and error the attempt ends in, or (nil, nil) for the true manifest.
func (r *slotRun) run(t *testing.T, ctx context.Context, stage func(ctx context.Context, l *Lease, call int) (*distribute.Manifest, error)) (RunStatus, error) {
	t.Helper()
	st, report, err := RunSlots(ctx, r.s, r.id, r.workDir, func(ctx context.Context, l *Lease) (*distribute.Manifest, error) {
		r.inFlight.Add(1)
		defer r.inFlight.Add(-1)
		r.mu.Lock()
		r.calls[l.Shard]++
		call := r.calls[l.Shard]
		r.mu.Unlock()
		if m, err := stage(ctx, l, call); m != nil || err != nil {
			return m, err
		}
		return r.honest[l.Shard], nil
	})
	if n := r.inFlight.Load(); n != 0 {
		t.Errorf("RunSlots returned with %d attempts still running", n)
	}
	if (st.State == RunComplete) != (report != nil) {
		t.Errorf("state %s with report %v", st.State, report)
	}
	if report != nil && report.ActualFiles != testConfig().NumFiles {
		t.Errorf("merged report counts %d files, want %d", report.ActualFiles, testConfig().NumFiles)
	}
	return st, err
}

func untilCancelled(ctx context.Context) (*distribute.Manifest, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestRunSlotsConverges: three slots, three honest attempts, the
// single-process digest; the journals of a merged run are removed.
func TestRunSlotsConverges(t *testing.T) {
	r := newSlotRun(t, 1, time.Minute)
	journal := distribute.JournalFile(r.workDir, r.open.Plan.Fingerprint(), 1)
	if err := os.WriteFile(journal, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := r.run(t, context.Background(), func(context.Context, *Lease, int) (*distribute.Manifest, error) { return nil, nil })
	if err != nil || st.State != RunComplete {
		t.Fatalf("run: state %s (%s), err %v", st.State, st.Error, err)
	}
	if ref := referenceDigest(t); st.Digest != ref {
		t.Fatalf("digest %s, want single-process %s", st.Digest, ref)
	}
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Errorf("the merged run kept a journal: %v", err)
	}
}

// TestRunSlotsRetriesFailedAttempt: an attempt that ends in an error, or in a
// manifest the scheduler refuses (the wrong shard's, a tampered one, none),
// is retried; a refused manifest costs the journal that produced it, an
// error does not.
func TestRunSlotsRetriesFailedAttempt(t *testing.T) {
	for _, c := range []struct {
		name     string
		first    func(r *slotRun) (*distribute.Manifest, error)
		rejected bool
	}{
		{"exit status", func(*slotRun) (*distribute.Manifest, error) {
			return nil, errors.New("worker process: exit status 1")
		}, false},
		{"wrong shard", func(r *slotRun) (*distribute.Manifest, error) { return r.honest[0], nil }, true},
		{"tampered", func(r *slotRun) (*distribute.Manifest, error) {
			m := *r.honest[1]
			m.Bytes += 7
			return &m, nil
		}, true},
		{"no manifest", func(*slotRun) (*distribute.Manifest, error) {
			return nil, fmt.Errorf("no usable manifest: %w", os.ErrNotExist)
		}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newSlotRun(t, 2, time.Minute)
			journal := distribute.JournalFile(r.workDir, r.open.Plan.Fingerprint(), 1)
			st, err := r.run(t, context.Background(), func(_ context.Context, l *Lease, call int) (*distribute.Manifest, error) {
				if l.Shard != 1 {
					return nil, nil
				}
				if call == 1 {
					if err := os.WriteFile(journal, nil, 0o644); err != nil {
						t.Error(err)
					}
					return c.first(r)
				}
				if _, err := os.Stat(journal); os.IsNotExist(err) != c.rejected {
					t.Errorf("journal at the retry: %v; want it removed: %t", err, c.rejected)
				}
				return nil, nil
			})
			if err != nil || st.State != RunComplete {
				t.Fatalf("run: state %s (%s), err %v", st.State, st.Error, err)
			}
			if ref := referenceDigest(t); st.Digest != ref {
				t.Fatalf("digest %s, want single-process %s", st.Digest, ref)
			}
			if st.Requeues != 1 || st.Shards[1].Attempts != 2 {
				t.Errorf("requeues %d, shard 1 attempts %d; want 1 and 2", st.Requeues, st.Shards[1].Attempts)
			}
			if got := r.s.StatsSnapshot().ManifestsRejected; (got == 1) != c.rejected {
				t.Errorf("ManifestsRejected = %d", got)
			}
		})
	}
}

// TestRunSlotsCancelsSiblingsOnFailure: one shard is out of attempts while
// its siblings are wedged forever. The run fails naming the shard, and the
// siblings' attempts are cancelled instead of waited for.
func TestRunSlotsCancelsSiblingsOnFailure(t *testing.T) {
	r := newSlotRun(t, 1, time.Hour)
	st, err := r.run(t, context.Background(), func(ctx context.Context, l *Lease, _ int) (*distribute.Manifest, error) {
		if l.Shard == 0 {
			return nil, errors.New("worker process: exit status 1")
		}
		return untilCancelled(ctx)
	})
	if err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	if st.State != RunFailed || !strings.Contains(st.Error, "shard 0") || !strings.Contains(st.Error, "exit status 1") {
		t.Fatalf("state %s, error %q; want failed, naming shard 0 and the reason", st.State, st.Error)
	}
	if len(st.Outstanding) != 3 {
		t.Errorf("outstanding %d shards, want all 3", len(st.Outstanding))
	}
}

// TestRunSlotsDeadline: an attempt that outlives its lease is cancelled at
// the deadline. With an attempt left the shard is retried and the run
// converges; without one the run fails promptly, naming the shard and the
// timeout.
func TestRunSlotsDeadline(t *testing.T) {
	wedgeFirst := func(ctx context.Context, l *Lease, call int) (*distribute.Manifest, error) {
		if l.Shard == 2 && call == 1 {
			return untilCancelled(ctx)
		}
		return nil, nil
	}
	r := newSlotRun(t, 2, 20*time.Millisecond)
	st, err := r.run(t, context.Background(), wedgeFirst)
	if err != nil || st.State != RunComplete {
		t.Fatalf("with a retry: state %s (%s), err %v", st.State, st.Error, err)
	}
	if ref := referenceDigest(t); st.Digest != ref {
		t.Fatalf("digest %s, want single-process %s", st.Digest, ref)
	}
	if st.Shards[2].Attempts != 2 {
		t.Errorf("shard 2 took %d attempts, want 2", st.Shards[2].Attempts)
	}

	// A TTL the wire's whole milliseconds cannot carry: the slot's deadline
	// is the scheduler's own LeaseTTL.
	r = newSlotRun(t, 1, 20500*time.Microsecond)
	st, err = r.run(t, context.Background(), wedgeFirst)
	if err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	if st.State != RunFailed || !strings.Contains(st.Error, "shard 2") || !strings.Contains(st.Error, "timed out after 20.5ms") {
		t.Fatalf("without a retry: state %s, error %q", st.State, st.Error)
	}
}

// TestRunSlotsParentCancelled: the caller giving up ends every attempt and
// every slot; RunSlots returns the context's error and leaves no goroutine.
func TestRunSlotsParentCancelled(t *testing.T) {
	before := runtime.NumGoroutine()
	r := newSlotRun(t, 3, time.Hour)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	_, err := r.run(t, ctx, func(ctx context.Context, _ *Lease, _ int) (*distribute.Manifest, error) {
		if started.Add(1) == 3 {
			cancel() // every slot holds a lease and is inside its attempt
		}
		return untilCancelled(ctx)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunSlots: got %v, want context.Canceled", err)
	}
	// A slot's goroutine may still be on its way out of wg.Done.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before, %d after", before, runtime.NumGoroutine())
		}
	}
}
