package fleet

// The local transport: the caller's own scheduler driven by one slot per
// shard, each working lease → execute → Complete | Fail in this process.
// `impressions distrun` supplies an execute that runs a worker process; the
// tests supply fakes.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"impressions/internal/distribute"
	"impressions/internal/fsimage"
)

// ExecuteFunc runs one leased shard attempt and returns its manifest. ctx
// ends at the lease's deadline, when the run has failed, or when the caller
// gives up; the attempt must stop then (a worker process is killed).
type ExecuteFunc func(ctx context.Context, l *Lease) (*distribute.Manifest, error)

// RunSlots drives run runID of s, a scheduler of the caller's own with no
// other run on it, to its end: one slot per shard, each holding leases until
// it has committed a shard, so a failed attempt is retried by the slot that
// saw it fail. An attempt that returns an error, or outlives its lease, is
// reported with Fail and re-queues under the scheduler's retry policy; once
// the run has failed the remaining attempts are cancelled. Attempts journal
// under workDir (distribute.JournalFile, on the fingerprint the run was
// created with): RunSlots removes a journal whose manifest was refused, and
// all of them once the run has merged.
//
// It returns the run's final status and, for a complete run, the merged
// report. The error is ctx's, when the caller gave up first.
func RunSlots(ctx context.Context, s *Scheduler, runID, workDir string, execute ExecuteFunc) (RunStatus, *fsimage.Report, error) {
	st, err := s.Status(runID)
	if err != nil {
		return st, nil, err
	}
	slotCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for range st.Shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.slot(slotCtx, cancel, runID, workDir, execute)
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return st, nil, err
	}
	st, _ = s.Status(runID)
	if st.State != RunComplete {
		return st, nil, nil
	}
	for shard := range st.Shards {
		os.Remove(distribute.JournalFile(workDir, st.Fingerprint, shard))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return st, s.runs[runID].report, nil
}

// slot works leases until it has committed one shard or the run is over. The
// first slot to find the run failed cancels its siblings' attempts.
func (s *Scheduler) slot(ctx context.Context, cancel context.CancelFunc, runID, workDir string, execute ExecuteFunc) {
	reg := s.Register()
	for ctx.Err() == nil {
		if st, _ := s.Status(runID); st.State != RunRunning {
			cancel()
			return
		}
		l, _ := s.Lease(reg.WorkerID) // the worker was registered three lines up
		if l == nil {
			// The shard this slot gave back is waiting out its backoff.
			select {
			case <-ctx.Done():
			case <-time.After(time.Duration(reg.PollMillis) * time.Millisecond):
			}
			continue
		}
		ttl := s.opts.LeaseTTL // not l.TTLMillis: the wire's milliseconds would round a short one to 0
		attemptCtx, stop := context.WithTimeout(ctx, ttl)
		m, err := execute(attemptCtx, l)
		timedOut := attemptCtx.Err() != nil
		stop()
		switch {
		case ctx.Err() != nil:
			// The run is over or the caller gave up: nothing is left to settle.
		case err == nil:
			if err = s.Complete(l.LeaseID, m); err == nil {
				return
			}
			if errors.Is(err, ErrManifestRejected) {
				// The journal produced a manifest the scheduler disproved:
				// the retry starts clean.
				os.Remove(distribute.JournalFile(workDir, l.Fingerprint, l.Shard))
			}
		default:
			if timedOut {
				err = fmt.Errorf("worker timed out after %s (per-attempt deadline)", ttl)
			}
			// The lease is this slot's own and the run still stands, so Fail
			// has nothing to refuse.
			_ = s.Fail(l.LeaseID, err.Error())
		}
	}
}
