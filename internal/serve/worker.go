package serve

// The fleet worker loop: register, heartbeat in the background, and pull
// shard leases until the context ends. Each leased shard executes against
// a shard journal (distribute.WorkerOptions.JournalPath), so a worker
// killed mid-shard — or preempted and restarted — resumes from the last
// sealed digest batch instead of rewriting the shard. Shard pulls are
// idempotent and retried; lease claims, completions and failure reports
// never are.
//
// This loop and fleet.RunSlots drive the same scheduler calls and stay two
// functions: this one outlives runs, heartbeats and re-registers because the
// daemon can only judge it by what it hears, leaves an overdue attempt to the
// daemon's expiry (the journal it keeps filling serves the next lease), and
// drops a journal the moment the daemon holds the manifest; a local slot
// ends with its run, kills the attempt at the lease deadline itself, and
// keeps journals until the run has merged.

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
	// Worker is what every leased shard executes under: Parallelism, the
	// journal's BatchFiles, and FailAfterFiles > 0 to inject a deterministic
	// mid-shard crash — execution stops with distribute.ErrSimulatedCrash
	// after that many files of the first leased shard, and the loop returns
	// the error immediately (the CLI escalates it to a SIGKILL of the whole
	// process). JournalPath is set per lease.
	Worker distribute.WorkerOptions
	// IdleExit, when > 0, ends the loop cleanly after that long without any
	// lease — how CI drains workers when the daemon runs out of work.
	IdleExit time.Duration
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
// journal, and upload the manifest (never retried). An attempt that fails is
// given back at once (FailLease), so the shard re-queues after the backoff
// instead of idling until the lease expires; an injected crash says nothing,
// which is the fault being drilled. The journal is removed once the daemon
// accepts the manifest, or refuses it (422: the journal produced a manifest
// the daemon disproved); a superseded lease keeps it, so the next lease over
// this shard resumes instead of restarting.
func (c *Client) executeLease(ctx context.Context, lease *fleet.Lease, opts FleetWorkerOptions, st *FleetWorkerStats, logf func(string, ...any)) (crashed bool, _ error) {
	logf("worker %s: leased run %s shard %d (attempt %d)", st.WorkerID, lease.RunID, lease.Shard, lease.Attempt)
	wopts := opts.Worker
	wopts.JournalPath = distribute.JournalFile(opts.WorkDir, lease.Fingerprint, lease.Shard)
	view, err := c.PullShard(ctx, lease.Fingerprint, lease.Shard)
	var res *distribute.ShardResult
	if err == nil {
		// Each plan gets a subdirectory of its own, named like its journals.
		outRoot := filepath.Join(opts.OutRoot, lease.Fingerprint[:min(len(lease.Fingerprint), 12)])
		res, err = distribute.Execute(ctx, view, distribute.DirTarget(outRoot), wopts)
	}
	if errors.Is(err, distribute.ErrSimulatedCrash) {
		// The injected fault: stop everything mid-shard, journal intact.
		return true, err
	}
	if err != nil {
		logf("worker %s: shard %d failed: %v", st.WorkerID, lease.Shard, err)
		// A worker being stopped fails its attempt too: ctx is over, the
		// lease is not.
		fctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
		defer cancel()
		if ferr := c.FailLease(fctx, lease.LeaseID, err.Error()); ferr != nil {
			logf("worker %s: shard %d lease not given back: %v", st.WorkerID, lease.Shard, ferr)
		}
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
			os.Remove(wopts.JournalPath)
		}
		return false, err
	}
	os.Remove(wopts.JournalPath)
	st.ShardsCommitted++
	logf("worker %s: shard %d committed (%d files, %d bytes)", st.WorkerID, lease.Shard, res.Manifest.Files, res.Manifest.Bytes)
	return false, nil
}
