package serve

// The fleet worker loop: register, heartbeat in the background, and pull
// shard leases until the context ends. Each leased shard executes against
// a shard journal (distribute.WorkerOptions.JournalPath), so a worker
// killed mid-shard — or preempted and restarted — resumes from the last
// sealed digest batch instead of rewriting the shard. Shard pulls are
// idempotent and retried; lease claims and completions never are.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"impressions/internal/distribute"
	"impressions/internal/fleet"
)

// FleetWorkerOptions configures one fleet worker.
type FleetWorkerOptions struct {
	// OutRoot is where shard trees are materialized; each plan gets its own
	// subdirectory keyed by fingerprint so concurrent runs never collide.
	OutRoot string
	// WorkDir holds shard journals (default: OutRoot). Keeping it stable
	// across restarts is what makes mid-shard resume work.
	WorkDir string
	// BatchFiles is the journal flush granularity (0 = package default).
	BatchFiles int
	// IdleExit, when > 0, ends the loop cleanly after that long without any
	// lease — how CI drains workers when the daemon runs out of work.
	IdleExit time.Duration
	// FailAfterFiles > 0 injects a deterministic mid-shard crash: execution
	// stops with distribute.ErrSimulatedCrash after that many files of the
	// first leased shard, and the loop returns the error immediately (the
	// CLI escalates it to a SIGKILL of the whole process).
	FailAfterFiles int
	// Logf, when non-nil, receives worker progress lines.
	Logf func(format string, a ...any)
}

// FleetWorkerStats summarizes one worker loop's life.
type FleetWorkerStats struct {
	WorkerID        string
	ShardsCommitted int
	ShardsResumed   int
	FilesWritten    int
	FilesResumed    int
	LeasesLost      int
}

// RunFleetWorker joins the daemon at c.Base and works leases until ctx
// ends (returns nil), IdleExit lapses (returns nil), or an injected crash
// fires (returns distribute.ErrSimulatedCrash).
func (c *Client) RunFleetWorker(ctx context.Context, opts FleetWorkerOptions) (FleetWorkerStats, error) {
	var st FleetWorkerStats
	if opts.OutRoot == "" {
		return st, fmt.Errorf("serve: fleet worker requires an output root")
	}
	if opts.WorkDir == "" {
		opts.WorkDir = opts.OutRoot
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	reg, err := c.RegisterWorker(ctx)
	if err != nil {
		return st, fmt.Errorf("serve: joining fleet: %w", err)
	}
	st.WorkerID = reg.WorkerID
	logf("worker %s: joined %s (heartbeat %dms, lease ttl %dms)", reg.WorkerID, c.Base, reg.HeartbeatMillis, reg.LeaseTTLMillis)

	// Heartbeats run on their own goroutine so a long content pass never
	// looks like death. A failed beat is just skipped — the next one, or
	// the next lease claim, renews liveness.
	hbCtx, stopHB := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Duration(reg.HeartbeatMillis) * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				if err := c.Heartbeat(hbCtx, reg.WorkerID); err != nil && hbCtx.Err() == nil {
					logf("worker %s: heartbeat failed: %v", reg.WorkerID, err)
				}
			}
		}
	}()
	defer func() { stopHB(); wg.Wait() }()

	poll := time.Duration(reg.PollMillis) * time.Millisecond
	idleSince := time.Now()
	for {
		if ctx.Err() != nil {
			return st, nil
		}
		lease, err := c.LeaseShard(ctx, reg.WorkerID)
		if err != nil {
			if ctx.Err() != nil {
				return st, nil
			}
			// Worker unknown (daemon restarted): re-register once per loop
			// pass; other errors just wait out the poll interval.
			if StatusCode(err) == http.StatusNotFound {
				if reg2, rerr := c.RegisterWorker(ctx); rerr == nil {
					reg = reg2
					st.WorkerID = reg.WorkerID
					logf("worker %s: re-registered after daemon lost us", reg.WorkerID)
					continue
				}
			}
			logf("worker %s: lease claim failed: %v", reg.WorkerID, err)
		}
		if lease == nil {
			if opts.IdleExit > 0 && time.Since(idleSince) >= opts.IdleExit {
				logf("worker %s: no work for %s — exiting", reg.WorkerID, opts.IdleExit)
				return st, nil
			}
			select {
			case <-ctx.Done():
				return st, nil
			case <-time.After(poll):
			}
			continue
		}
		idleSince = time.Now()
		crashed, err := c.executeLease(ctx, lease, opts, &st, logf)
		if crashed {
			return st, err
		}
		if err != nil && ctx.Err() != nil {
			return st, nil
		}
	}
}

// executeLease runs one leased shard end to end: pull the shard view
// (retried — idempotent), execute it incrementally against the shard's
// journal, and upload the manifest (never retried). The journal is removed
// only once the daemon accepts the manifest; a superseded lease keeps it,
// so the next lease over this shard resumes instead of restarting.
func (c *Client) executeLease(ctx context.Context, lease *fleet.Lease, opts FleetWorkerOptions, st *FleetWorkerStats, logf func(string, ...any)) (crashed bool, _ error) {
	logf("worker %s: leased run %s shard %d (attempt %d)", st.WorkerID, lease.RunID, lease.Shard, lease.Attempt)
	view, err := c.PullShard(ctx, lease.Fingerprint, lease.Shard)
	if err != nil {
		logf("worker %s: pulling shard %d: %v", st.WorkerID, lease.Shard, err)
		return false, err
	}
	outRoot := filepath.Join(opts.OutRoot, shortFingerprint(lease.Fingerprint))
	journal := filepath.Join(opts.WorkDir, fmt.Sprintf("journal-%s-%d.jsonl", shortFingerprint(lease.Fingerprint), lease.Shard))
	// One file writer per lease; the journal seals batches at any value.
	res, err := distribute.Execute(ctx, view, distribute.DirTarget(outRoot), distribute.WorkerOptions{
		Parallelism:    1,
		JournalPath:    journal,
		BatchFiles:     opts.BatchFiles,
		FailAfterFiles: opts.FailAfterFiles,
	})
	if err != nil {
		if errors.Is(err, distribute.ErrSimulatedCrash) {
			// The injected fault: stop everything mid-shard, journal intact.
			return true, err
		}
		logf("worker %s: shard %d failed: %v", st.WorkerID, lease.Shard, err)
		return false, err
	}
	st.FilesWritten += res.WrittenFiles
	st.FilesResumed += res.ResumedFiles
	if res.ResumedFiles > 0 {
		st.ShardsResumed++
		logf("worker %s: shard %d resumed %d files from its journal, wrote %d more", st.WorkerID, lease.Shard, res.ResumedFiles, res.WrittenFiles)
	}
	if err := c.CompleteLease(ctx, lease.LeaseID, res.Manifest); err != nil {
		st.LeasesLost++
		// A superseded lease (409) means the scheduler moved on — expiry
		// beat us, or another attempt committed first. The journal stays:
		// if this shard comes back to us, the work is already sealed.
		logf("worker %s: shard %d manifest not accepted: %v", st.WorkerID, lease.Shard, err)
		if StatusCode(err) == http.StatusUnprocessableEntity {
			// Rejected outright — the journal produced a manifest the daemon
			// disproved, so nothing in it is worth resuming from.
			os.Remove(journal)
		}
		return false, err
	}
	os.Remove(journal)
	st.ShardsCommitted++
	logf("worker %s: shard %d committed (%d files, %d bytes)", st.WorkerID, lease.Shard, res.Manifest.Files, res.Manifest.Bytes)
	return false, nil
}

// shortFingerprint abbreviates a plan fingerprint for paths and logs.
func shortFingerprint(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}
