package serve

// The fleet endpoints: the HTTP face of internal/fleet's scheduler. The
// scheduler owns every decision (lease grants, expiry, verification,
// merge); this file only translates requests, bounds bodies, and maps
// sentinel errors to statuses. Run creation goes through the plan cache's
// buildOrFetch — a fleet run over a spec the daemon has already planned
// starts instantly from the store.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"impressions/internal/distribute"
	"impressions/internal/fleet"
	"impressions/internal/fsimage"
)

// maxManifestBody bounds an uploaded shard manifest (64 MiB — a manifest
// line is ~100 bytes per file, so this covers shards far past the plan
// service's inline limits).
const maxManifestBody = 64 << 20

// Fleet returns the server's shard scheduler. Drive its Loop (the daemon
// does) or call Tick directly (tests do) to get expiry and fallback
// behavior.
func (s *Server) Fleet() *fleet.Scheduler { return s.fleet }

// newFleet builds the scheduler with the daemon-side hooks filled in:
// inline execution through the plan store and the server's worker pool,
// and re-run commands that name this daemon's shard endpoint.
func (s *Server) newFleet(opts fleet.Options) *fleet.Scheduler {
	if opts.InlineExecute == nil {
		opts.InlineExecute = s.inlineShard
	}
	if opts.WorkerCommand == nil {
		base := s.opts.PublicURL
		if base == "" {
			base = "http://<impressionsd>"
		}
		opts.WorkerCommand = func(fp string, shard int) string {
			return fmt.Sprintf("impressions worker -from %s/v1/plans/%s/shards/%d -out <out> -manifest manifest-%d.json",
				base, fp, shard, shard)
		}
	}
	return fleet.New(opts)
}

// inlineShard is the zero-worker fallback executor: decode the shard's
// stored fragment and run it daemon-side onto a target that discards the
// bytes and keeps the manifest — no disk, no worker.
// It runs under the same worker-pool semaphore as every heavy request.
func (s *Server) inlineShard(ctx context.Context, fingerprint string, shard int) (m *distribute.Manifest, err error) {
	if s.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
		defer cancel()
	}
	err = s.withStored(ctx, fingerprint, func(entry PlanEntry) error {
		rc, _, err := entry.Open(shard)
		if err != nil {
			return err
		}
		view, err := distribute.DecodeShardView(rc)
		rc.Close()
		if err != nil {
			return err
		}
		res, err := distribute.Execute(ctx, view, distribute.TarTarget(io.Discard), distribute.WorkerOptions{})
		if err == nil {
			m = res.Manifest
		}
		return err
	})
	return m, err
}

// handlePostRun creates a distributed run: make sure the plan is in the
// store (buildOrFetch: built exactly once however many requests race) and
// hand the scheduler a replay of the stored fragments. The response is the
// run's initial status; poll GET /v1/runs/{id} until it carries the
// canonical digest.
func (s *Server) handlePostRun(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.requestContext(r)
	defer cancel()
	var req PlanRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	st, fp, err := s.createRun(ctx, req)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set(HeaderFingerprint, fp)
	writeJSON(w, st)
}

func (s *Server) createRun(ctx context.Context, req PlanRequest) (st fleet.RunStatus, fp string, err error) {
	if fp, err = s.planFingerprint(&req); err != nil {
		return st, fp, err
	}
	if _, _, err := s.buildOrFetch(ctx, fp, planBuilder(req, fp)); err != nil {
		return st, fp, err
	}
	id, err := s.fleet.CreateRun(fp, s.runSource(fp, req))
	if err != nil {
		return st, fp, err
	}
	st, err = s.fleet.Status(id)
	return st, fp, err
}

// runSource replays the stored plan fp for a run: once as the run is
// created, and again when its last shard commits. Each replay reads the
// fragments under a worker slot, as every O(image) read of the store does, on
// a context of its own — the request that created the run is gone by the
// merge. An entry evicted in the meantime is rebuilt through buildOrFetch.
func (s *Server) runSource(fp string, req PlanRequest) distribute.PlanSource {
	return func(open func(*distribute.Plan) (fsimage.RecordSink, error)) error {
		ctx := context.Background()
		if s.opts.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
			defer cancel()
		}
		replay := func(entry PlanEntry) error { return entrySource(ctx, entry)(open) }
		err := s.withStored(ctx, fp, replay)
		if !errors.Is(err, ErrPlanNotFound) {
			return err
		}
		entry, _, err := s.buildOrFetch(ctx, fp, planBuilder(req, fp))
		if err != nil {
			return err
		}
		if err := s.acquire(ctx); err != nil {
			return err
		}
		defer s.release()
		return replay(entry)
	}
}

func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	st, err := s.fleet.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, st)
}

func (s *Server) handleFleetStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.fleet.StatsSnapshot())
}

func (s *Server) handleRegisterWorker(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.fleet.Register())
}

// writeNoContent answers a state transition that has nothing to say but
// whether it happened.
func writeNoContent(w http.ResponseWriter, err error) {
	if err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	writeNoContent(w, s.fleet.Heartbeat(r.PathValue("id")))
}

// handleLease grants one shard attempt (200) or reports no work ready
// (204). Claiming is a state transition: clients must not auto-retry it.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	l, err := s.fleet.Lease(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	if l == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, l)
}

// handleComplete accepts a shard manifest against a lease. The scheduler
// verifies the manifest server-side before trusting a byte of it: a stale
// lease is 409, a bad manifest is 422 (and its shard is re-queued).
func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var m distribute.Manifest
	err := decodeJSONLimit(r, &m, maxManifestBody)
	if err == nil {
		err = s.fleet.Complete(r.PathValue("id"), &m)
	}
	writeNoContent(w, err)
}

// handleFail gives a lease back: the worker's attempt ended without a
// manifest and it says so, so the shard re-queues after the backoff instead
// of sitting leased until the TTL. A stale lease is 409, as for complete.
func (s *Server) handleFail(w http.ResponseWriter, r *http.Request) {
	var req fleet.FailRequest
	err := decodeJSON(r, &req)
	if err == nil {
		err = s.fleet.Fail(r.PathValue("id"), req.Reason)
	}
	writeNoContent(w, err)
}
