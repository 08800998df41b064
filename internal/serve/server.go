package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"impressions/internal/content"
	"impressions/internal/core"
	"impressions/internal/distribute"
	"impressions/internal/fleet"
	"impressions/internal/fsimage"
	"impressions/internal/imgfmt"
)

// Options configures a Server. The zero value is usable: in-memory store,
// one worker slot per CPU, five-minute request deadline.
type Options struct {
	// Store is the content-addressed plan cache (default: NewMemStore(0)).
	Store PlanStore
	// Workers bounds the concurrent heavy requests — plan builds, shard
	// extractions, inline generations — across all connections (default:
	// GOMAXPROCS). Requests beyond the bound queue on their own context, so
	// a cancelled waiter never consumes a slot.
	Workers int
	// RequestTimeout bounds each heavy request (default 5m; < 0 disables).
	RequestTimeout time.Duration
	// MaxInlineFiles caps the normalized file count /v1/generate accepts
	// (default 200000); larger images belong on the plan/worker pipeline.
	MaxInlineFiles int
	// MaxShards caps the shard count a plan request may ask for
	// (default 256).
	MaxShards int
	// Fleet tunes the shard scheduler behind /v1/runs and the worker
	// endpoints. The zero value selects the fleet package's defaults; the
	// server fills in the inline-fallback executor and re-run command
	// renderer unless the caller overrides them.
	Fleet fleet.Options
	// PublicURL is the base URL workers and re-run commands should use to
	// reach this daemon (display/triage only; empty picks a placeholder).
	PublicURL string
}

func (o Options) withDefaults() Options {
	if o.Store == nil {
		o.Store = NewMemStore(0)
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 5 * time.Minute
	}
	if o.MaxInlineFiles <= 0 {
		o.MaxInlineFiles = 200000
	}
	if o.MaxShards <= 0 {
		o.MaxShards = 256
	}
	return o
}

// Server is the generation service: an http.Handler exposing plan building
// (content-addressed, single-flight deduplicated, served from the plan
// store), per-shard plan slicing, and inline generation. All responses
// stream in O(chunk) memory; determinism is inherited wholesale from the
// distribute package — a plan served twice, or built by racing requests, is
// byte-identical.
type Server struct {
	opts    Options
	mux     *http.ServeMux
	sem     chan struct{}
	flight  flightGroup
	started time.Time
	fleet   *fleet.Scheduler

	// ready is the /readyz verdict: true from construction (the handler can
	// serve as soon as it is reachable), flipped false by SetReady when the
	// daemon starts draining so load balancers stop routing to it. Liveness
	// (/healthz) is unaffected by draining.
	ready atomic.Bool

	// regs caches one content registry per kind for the process lifetime, so
	// repeated generate/digest requests reuse the warm word models and alias
	// tables instead of rebuilding them per request. Registries are safe to
	// share because the server never mutates them after construction.
	regMu sync.Mutex
	regs  map[string]*content.Registry

	plansBuilt      atomic.Int64
	cacheHits       atomic.Int64
	cacheMisses     atomic.Int64
	cacheBypass     atomic.Int64
	coalescedBuilds atomic.Int64
	shardsServed    atomic.Int64
	inlineGenerates atomic.Int64
	imagesServed    atomic.Int64
}

// New returns a ready-to-serve Server.
func New(opts Options) *Server {
	s := &Server{
		opts:    opts.withDefaults(),
		mux:     http.NewServeMux(),
		started: time.Now(),
		regs:    map[string]*content.Registry{},
	}
	s.sem = make(chan struct{}, s.opts.Workers)
	s.fleet = s.newFleet(s.opts.Fleet)
	s.ready.Store(true)
	s.mux.HandleFunc("POST /v1/plans", s.handlePostPlans)
	s.mux.HandleFunc("GET /v1/plans/{fp}/shards/{shard}", s.handleGetShard)
	s.mux.HandleFunc("GET /v1/plans/{fp}/fragments/{shard}", s.handleGetFragment)
	s.mux.HandleFunc("POST /v1/generate", s.handleGenerate)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/runs", s.handlePostRun)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleGetRun)
	s.mux.HandleFunc("GET /v1/runs/{id}/image.tar", s.handleGetRunImage)
	s.mux.HandleFunc("GET /v1/fleet/stats", s.handleFleetStats)
	s.mux.HandleFunc("POST /v1/fleet/workers", s.handleRegisterWorker)
	s.mux.HandleFunc("POST /v1/fleet/workers/{id}/heartbeat", s.handleHeartbeat)
	s.mux.HandleFunc("POST /v1/fleet/workers/{id}/lease", s.handleLease)
	s.mux.HandleFunc("POST /v1/fleet/leases/{id}/complete", s.handleComplete)
	s.mux.HandleFunc("POST /v1/fleet/leases/{id}/fail", s.handleFail)
	// /healthz is liveness — the process is up and serving. /readyz is
	// readiness — it additionally goes 503 while the daemon drains.
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "draining\n")
			return
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ready\n")
	})
	return s
}

// SetReady flips the /readyz verdict; the daemon calls SetReady(false)
// when it begins its SIGTERM drain.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	return Stats{
		PlansBuilt:      s.plansBuilt.Load(),
		PlanCacheHits:   s.cacheHits.Load(),
		PlanCacheMisses: s.cacheMisses.Load(),
		PlanCacheBypass: s.cacheBypass.Load(),
		CoalescedBuilds: s.coalescedBuilds.Load(),
		ShardsServed:    s.shardsServed.Load(),
		InlineGenerates: s.inlineGenerates.Load(),
		ImagesServed:    s.imagesServed.Load(),
		UptimeSeconds:   time.Since(s.started).Seconds(),
	}
}

// requestContext derives the heavy-request context: the client's own
// context bounded by the server's request deadline.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opts.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	}
	return context.WithCancel(r.Context())
}

// acquire claims a worker slot, waiting on ctx: a request cancelled while
// queued consumes nothing and frees its place in line immediately.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() { <-s.sem }

// registry returns the process-wide warm registry for a content kind.
func (s *Server) registry(kind string) *content.Registry {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if r, ok := s.regs[kind]; ok {
		return r
	}
	r := content.NewRegistry(content.Kind(kind))
	s.regs[kind] = r
	return r
}

// decodeJSON reads a bounded JSON request body.
func decodeJSON(r *http.Request, v any) error {
	return decodeJSONLimit(r, v, 1<<20)
}

// decodeJSONLimit reads a JSON request body up to limit bytes (manifest
// uploads carry per-file digest lines and need more room than specs).
func decodeJSONLimit(r *http.Request, v any, limit int64) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, limit))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: decoding request body: %v (%w)", err, fsimage.ErrInvalidSpec)
	}
	return nil
}

// writeError maps an error to its HTTP status: client mistakes
// (fsimage.ErrInvalidSpec) are 400, version skew (fsimage.ErrPlanVersion)
// is 409, missing plans are 404, deadlines are 504, and anything else —
// including integrity violations (fsimage.ErrManifestIntegrity) — is 500.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, fsimage.ErrInvalidSpec):
		status = http.StatusBadRequest
	case errors.Is(err, fsimage.ErrPlanVersion):
		status = http.StatusConflict
	case errors.Is(err, ErrPlanNotFound):
		status = http.StatusNotFound
	case errors.Is(err, fleet.ErrUnknownRun), errors.Is(err, fleet.ErrUnknownWorker):
		status = http.StatusNotFound
	case errors.Is(err, fleet.ErrLeaseInvalid), errors.Is(err, ErrRunNotComplete):
		status = http.StatusConflict
	case errors.Is(err, fleet.ErrManifestRejected):
		status = http.StatusUnprocessableEntity
	case errors.Is(err, fleet.ErrTooManyRuns):
		status = http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client is gone; the status is for logs only.
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// planFingerprint settles how many shards a plan request cuts the image into
// (req.Shards on return) and returns the plan's content address.
func (s *Server) planFingerprint(req *PlanRequest) (string, error) {
	noun := "shards"
	if req.Partition > 0 {
		if req.Shards != 0 && req.Shards != req.Partition {
			return "", fmt.Errorf("serve: shards %d conflicts with partition %d — fragments are shard documents, the counts must agree (%w)",
				req.Shards, req.Partition, fsimage.ErrInvalidSpec)
		}
		noun, req.Shards = "fragments", req.Partition
	}
	if req.Shards <= 0 {
		req.Shards = 1
	}
	if req.Shards > s.opts.MaxShards {
		return "", fmt.Errorf("serve: %d %s exceeds the server's limit of %d (%w)", req.Shards, noun, s.opts.MaxShards, fsimage.ErrInvalidSpec)
	}
	return distribute.SpecFingerprint(req.Spec, req.Shards, req.ChunkSize)
}

// handlePostPlans is the build-or-fetch plan endpoint: the spec is
// fingerprinted (normalized content address) and the plan document, or with
// partition the fragment index, is served through the cache discipline of
// buildOrFetch.
func (s *Server) handlePostPlans(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.requestContext(r)
	defer cancel()
	var req PlanRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	fp, err := s.planFingerprint(&req)
	if err != nil {
		writeError(w, err)
		return
	}
	key, build := fp, planBuilder(req)
	if req.Partition > 0 {
		key, build = fragmentIndexKey(fp), s.fragmentBuilder(req, fp)
	}
	rc, size, verdict, err := s.buildOrFetch(ctx, key, build)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(HeaderFingerprint, fp)
	w.Header().Set(HeaderCache, verdict)
	if rc != nil {
		defer rc.Close()
		w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
		io.Copy(w, rc)
		return
	}
	// Bypass: serve the request anyway, a fresh build streamed straight into
	// the response. Headers are out; all a failure can do is abort the stream
	// mid-document so the client's decoder rejects it.
	s.cacheBypass.Add(1)
	if err := s.acquire(ctx); err != nil {
		writeError(w, err)
		return
	}
	defer s.release()
	build(ctx, w)
}

// buildFunc writes the document the cache holds under one key into dst.
type buildFunc func(ctx context.Context, dst io.Writer) error

// buildOrFetch is the cache discipline, written once for every document the
// store holds. The store is consulted, and on a miss exactly one of the
// racing requests for key runs build — under a worker slot, streaming into a
// staged store entry that is committed whole or not at all, never into
// memory — while the rest wait for it. It returns the committed entry open
// for reading and how this request came by it: "hit", "miss" (this request
// built it) or "coalesced" (another in-flight request did). When the entry
// is gone again by the time it is re-opened (a byte budget much smaller than
// the document) the verdict is "bypass" and there is no reader: the caller
// serves from a build of its own.
func (s *Server) buildOrFetch(ctx context.Context, key string, build buildFunc) (rc io.ReadCloser, size int64, verdict string, err error) {
	if rc, size, err = s.opts.Store.Open(key); err == nil {
		s.cacheHits.Add(1)
		return rc, size, "hit", nil
	}
	s.cacheMisses.Add(1)
	fill := func() error {
		if err := s.acquire(ctx); err != nil {
			return err
		}
		defer s.release()
		// A build that finished between the probe above and this request
		// becoming leader already paid for the entry.
		if rc, _, err := s.opts.Store.Open(key); err == nil {
			rc.Close()
			return nil
		}
		pw, err := s.opts.Store.Create(key)
		if err != nil {
			return err
		}
		defer pw.Abort()
		// ctx is the leading request's: if it dies mid-build the staged
		// entry is aborted.
		if err := build(ctx, pw); err != nil {
			return err
		}
		if err := pw.Commit(); err != nil {
			return err
		}
		s.plansBuilt.Add(1)
		return nil
	}
	verdict = "miss"
	for {
		leader, err := s.flight.do(ctx, key, fill)
		if err == nil {
			if !leader {
				s.coalescedBuilds.Add(1)
				verdict = "coalesced"
			}
			break
		}
		// A leader killed by its own disconnection poisons only its own
		// waiters' round: any waiter still alive retries as the next leader.
		if !leader && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) && ctx.Err() == nil {
			continue
		}
		return nil, 0, "", err
	}
	if rc, size, err = s.opts.Store.Open(key); err != nil {
		return nil, 0, "bypass", nil
	}
	return rc, size, verdict, nil
}

// withStored runs fn on the stored document under key, holding a worker slot
// (what fn does with a plan is O(image) or O(shard)) and the open entry for
// as long as fn runs.
func (s *Server) withStored(ctx context.Context, key string, fn func(doc io.Reader, size int64) error) error {
	if err := s.acquire(ctx); err != nil {
		return err
	}
	defer s.release()
	rc, size, err := s.opts.Store.Open(key)
	if err != nil {
		return err
	}
	defer rc.Close()
	return fn(rc, size)
}

// planRequest lowers a request to the planner's (matching the normalization
// SpecFingerprint applies).
func planRequest(req PlanRequest) (distribute.PlanRequest, error) {
	cfg, err := core.ConfigFromSpec(req.Spec)
	cfg.SimulateDisk = false
	cfg.LayoutScore = 1.0
	return distribute.PlanRequest{Config: cfg, MaxShards: req.Shards, ChunkSize: req.ChunkSize}, err
}

// planBuilder builds the monolithic plan document of a request.
func planBuilder(req PlanRequest) buildFunc {
	return func(ctx context.Context, dst io.Writer) error {
		preq, err := planRequest(req)
		if err != nil {
			return err
		}
		_, err = preq.Stream(ctx, dst)
		return err
	}
}

// fragmentKey is the store key of one fragment document: fragments are
// content-addressed exactly like plans, so the fleet scheduler can lease
// planning work the way it leases shard execution.
func fragmentKey(fp string, shard int) string { return fmt.Sprintf("%s-frag-%d", fp, shard) }

// fragmentIndexKey is the store key of a partitioned plan's index document.
// It commits last, so an index hit implies every fragment was committed.
func fragmentIndexKey(fp string) string { return fp + "-index" }

// nopWriteCloser adapts a staged store writer to the io.WriteCloser
// PartitionPlan expects, deferring commit/abort to the caller — the error
// path must abort, never publish, a half-written fragment.
type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// fragmentBuilder builds a partitioned plan's index document and, on the way,
// streams its fragments into staged store entries, committing every one only
// after the whole build succeeds — an error (or a dead requester) aborts all
// of them, never publishing a partial set. The index describes the plan to
// clients: the parent fingerprint plus the fragments' store keys (fetchable
// via the fragments endpoint).
func (s *Server) fragmentBuilder(req PlanRequest, fp string) buildFunc {
	return func(ctx context.Context, dst io.Writer) error {
		preq, err := planRequest(req)
		if err != nil {
			return err
		}
		var writers []PlanWriter
		defer func() {
			for _, pw := range writers {
				pw.Abort() // a no-op on the committed
			}
		}()
		plan, err := distribute.PartitionPlan(ctx, preq, func(shard int) (io.WriteCloser, error) {
			pw, err := s.opts.Store.Create(fragmentKey(fp, shard))
			if err != nil {
				return nil, err
			}
			writers = append(writers, pw)
			return nopWriteCloser{pw}, nil
		})
		if err != nil {
			return err
		}
		for _, pw := range writers {
			if err := pw.Commit(); err != nil {
				return err
			}
		}
		return plan.FragmentIndex(func(shard int) string { return fragmentKey(fp, shard) }).Encode(dst)
	}
}

// handleGetShard slices one shard out of a stored plan and streams it as a
// self-contained shard document. The extraction runs the shard-pruning
// decode server-side, so the response — and the server's memory — is
// bounded by the shard, not the plan.
func (s *Server) handleGetShard(w http.ResponseWriter, r *http.Request) { s.serveShard(w, r, false) }

// handleGetFragment streams one fragment document of a partitioned plan.
// Stored fragments are served verbatim; on a miss the server derives the
// fragment by slicing a stored monolithic plan — fragments are shard
// documents, so the two sources are byte-identical.
func (s *Server) handleGetFragment(w http.ResponseWriter, r *http.Request) { s.serveShard(w, r, true) }

// serveShard answers both endpoints: a stored fragment verbatim when stored
// is set and the store has it, otherwise shard {shard} pruned out of the
// stored plan {fp}.
func (s *Server) serveShard(w http.ResponseWriter, r *http.Request, stored bool) {
	ctx, cancel := s.requestContext(r)
	defer cancel()
	fp := r.PathValue("fp")
	shard, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil {
		writeError(w, fmt.Errorf("serve: shard index %q is not a number (%w)", r.PathValue("shard"), fsimage.ErrInvalidSpec))
		return
	}
	head := func() {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(HeaderFingerprint, fp)
	}
	if stored {
		err = s.withStored(ctx, fragmentKey(fp, shard), func(doc io.Reader, size int64) error {
			head()
			w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
			io.Copy(w, doc)
			s.shardsServed.Add(1)
			return nil
		})
	}
	if !stored || err != nil {
		err = s.withStored(ctx, fp, func(doc io.Reader, _ int64) error {
			view, err := distribute.DecodePlanShard(doc, shard)
			if err != nil {
				return err
			}
			// From here the headers are out: an encoding that fails aborts the
			// document mid-stream.
			head()
			if view.Encode(w) == nil {
				s.shardsServed.Add(1)
			}
			return nil
		})
	}
	if err != nil {
		writeError(w, err)
	}
}

// handleGenerate generates a small image inline and reports its canonical
// digest: the one-call path for images that don't warrant the plan/worker
// pipeline, and the route of the CLI's -digest — metadata resolved once,
// reported, and replayed through a tar sink that keeps nothing. The metadata
// and digest passes poll the request context, so a disconnected client frees
// its worker slot mid-run.
func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.requestContext(r)
	defer cancel()
	var req GenerateRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	resp, err := s.generate(ctx, req.Spec)
	if err != nil {
		writeError(w, err)
		return
	}
	s.inlineGenerates.Add(1)
	writeJSON(w, resp)
}

func (s *Server) generate(ctx context.Context, spec fsimage.Spec) (resp GenerateResponse, err error) {
	cfg, err := core.ConfigFromSpec(spec)
	if err != nil {
		return resp, err
	}
	gen, err := core.NewGenerator(cfg)
	if err != nil {
		return resp, err
	}
	spec = gen.Spec()
	if spec.NumFiles > s.opts.MaxInlineFiles {
		return resp, fmt.Errorf("serve: %d files exceeds the inline limit of %d — use POST /v1/plans and the distributed pipeline (%w)",
			spec.NumFiles, s.opts.MaxInlineFiles, fsimage.ErrInvalidSpec)
	}
	if err := s.acquire(ctx); err != nil {
		return resp, err
	}
	defer s.release()
	m, err := gen.ResolveMetadataContext(ctx)
	if err != nil {
		return resp, err
	}
	defer m.Close()
	if resp.Report, _, err = m.Report(); err != nil {
		return resp, err
	}
	resp.Digest, err = imgfmt.Digest(m, imgfmt.Options{Registry: s.registry(spec.ContentKind), Seed: spec.Seed, Context: ctx})
	return resp, err
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}
