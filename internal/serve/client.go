package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"impressions/internal/backoff"
	"impressions/internal/distribute"
	"impressions/internal/fleet"
	"impressions/internal/fsimage"
)

// Client is a thin typed client for the generation service. A plan
// response is the plan's fragment index, exposed as a stream to save or
// decode (distribute.DecodeFragmentIndex); a shard is decoded as a local
// fragment is (distribute.DecodeShardView).
//
// Idempotent calls (PostPlan, PullShard, Generate, Stats, run status)
// transparently retry transient failures — connection refused/reset and
// 502/503/504 — with capped exponential backoff plus jitter and
// ctx-aware sleeps. State transitions (registering, lease claims, lease
// completions, run creation) are never auto-retried: a duplicate there is
// a second claim, not a repeat of the same question.
type Client struct {
	// Base is the server's base URL, e.g. "http://127.0.0.1:7077".
	Base string
	// HTTP overrides the transport (default http.DefaultClient).
	HTTP *http.Client
	// Retries is the extra attempts for idempotent calls after a transient
	// failure (default 4; < 0 disables retrying).
	Retries int
	// RetryBase is the first backoff delay, doubled per attempt up to
	// RetryMax (defaults 100ms / 2s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// Jitter draws the retry jitter (uniform in [0, n)); the default is a
	// private seeded source (backoff.NewJitter), never the global math/rand.
	// Tests inject a deterministic one to pin retry timing.
	Jitter backoff.Jitter

	jitterOnce sync.Once
	jitterFn   backoff.Jitter
}

func (c *Client) jitter(n int64) int64 {
	if c.Jitter != nil {
		return c.Jitter(n)
	}
	c.jitterOnce.Do(func() { c.jitterFn = backoff.NewJitter() })
	return c.jitterFn(n)
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// WaitReady polls /readyz until the server reports ready or ctx expires.
func (c *Client) WaitReady(ctx context.Context) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := c.http().Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: server at %s never became ready: %w", c.Base, ctx.Err())
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// APIError is a non-2xx response, preserving the status code so callers
// (and the retry loop) can tell transient overload from a semantic no.
type APIError struct {
	Status  int
	Method  string
	Path    string
	Message string
}

func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("serve: %s %s: %s (HTTP %d)", e.Method, e.Path, e.Message, e.Status)
	}
	return fmt.Sprintf("serve: %s %s: HTTP %d", e.Method, e.Path, e.Status)
}

// StatusCode extracts the HTTP status from an error returned by the
// client, or 0 when the error never reached the server.
func StatusCode(err error) int {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status
	}
	return 0
}

// retryableStatus reports the statuses worth retrying: gateway-style
// transient failures, not semantic rejections.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// PlanResponse is one streamed fragment index plus its cache verdict.
type PlanResponse struct {
	// Fingerprint is the plan's content address (cache key).
	Fingerprint string
	// Cache is the HeaderCache verdict: hit, miss, or coalesced.
	Cache string
	// Body streams the fragment index; the caller must Close it.
	Body io.ReadCloser
}

// do sends a JSON request once and returns the raw response, converting
// non-2xx statuses into *APIError. State-transition endpoints call this
// directly so a transient failure surfaces instead of silently replaying.
func (c *Client) do(ctx context.Context, method, path string, body any) (*http.Response, error) {
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			return nil, fmt.Errorf("serve: encoding request: %w", err)
		}
	}
	return c.send(ctx, method, path, raw)
}

// send issues one attempt from pre-marshaled bytes.
func (c *Client) send(ctx context.Context, method, path string, raw []byte) (*http.Response, error) {
	var rd io.Reader
	if raw != nil {
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return nil, err
	}
	if raw != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		ae := &APIError{Status: resp.StatusCode, Method: method, Path: path}
		var er errorResponse
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&er) == nil && er.Error != "" {
			ae.Message = er.Error
		}
		return nil, ae
	}
	return resp, nil
}

// doIdempotent sends a JSON request, retrying transient failures with
// capped exponential backoff plus jitter. Only safe for idempotent calls:
// the request is re-sent verbatim (marshaled once), so asking twice must
// mean the same thing as asking once.
func (c *Client) doIdempotent(ctx context.Context, method, path string, body any) (*http.Response, error) {
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			return nil, fmt.Errorf("serve: encoding request: %w", err)
		}
	}
	retries := c.Retries
	if retries == 0 {
		retries = 4
	}
	if retries < 0 {
		retries = 0
	}
	base := c.RetryBase
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxDelay := c.RetryMax
	if maxDelay <= 0 {
		maxDelay = 2 * time.Second
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, err := c.send(ctx, method, path, raw)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		// Retry transport-level failures (connection refused/reset, broken
		// pipe — anything that never produced a response) and gateway-style
		// statuses; everything else is a real answer.
		if status := StatusCode(err); status != 0 && !retryableStatus(status) {
			return nil, err
		}
		if ctx.Err() != nil || attempt >= retries {
			return nil, lastErr
		}
		// Jitter in [delay/2, delay] decorrelates a fleet of retrying
		// clients hammering a recovering daemon.
		select {
		case <-ctx.Done():
			return nil, lastErr
		case <-time.After(backoff.Delay(base, maxDelay, attempt+1, c.jitter)):
		}
	}
}

// PostPlan requests the plan for a spec, building it server-side on a cache
// miss. The returned body streams its fragment index, which names fragment
// i <Fingerprint>.frag<i> (PullShard fetches it).
func (c *Client) PostPlan(ctx context.Context, req PlanRequest) (*PlanResponse, error) {
	resp, err := c.doIdempotent(ctx, http.MethodPost, "/v1/plans", req)
	if err != nil {
		return nil, err
	}
	return &PlanResponse{
		Fingerprint: resp.Header.Get(HeaderFingerprint),
		Cache:       resp.Header.Get(HeaderCache),
		Body:        resp.Body,
	}, nil
}

// PullShard fetches one shard's fragment and decodes it into an executable
// view, verified as a local fragment is.
func (c *Client) PullShard(ctx context.Context, fingerprint string, shard int) (*distribute.ShardView, error) {
	resp, err := c.doIdempotent(ctx, http.MethodGet, fmt.Sprintf("/v1/plans/%s/shards/%d", fingerprint, shard), nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return distribute.DecodeShardView(resp.Body)
}

// Generate runs an inline generation and returns its digest and report.
func (c *Client) Generate(ctx context.Context, spec fsimage.Spec) (GenerateResponse, error) {
	var out GenerateResponse
	err := c.getJSON(ctx, http.MethodPost, "/v1/generate", GenerateRequest{Spec: spec}, &out, true)
	return out, err
}

// PostRun creates a distributed run (plan build or cache hit, then shard
// scheduling) and returns its initial status. Not retried: a replayed
// create is a second run.
func (c *Client) PostRun(ctx context.Context, req PlanRequest) (fleet.RunStatus, error) {
	var st fleet.RunStatus
	err := c.getJSON(ctx, http.MethodPost, "/v1/runs", req, &st, false)
	return st, err
}

// Run fetches a run's status (idempotent, retried).
func (c *Client) Run(ctx context.Context, id string) (fleet.RunStatus, error) {
	var st fleet.RunStatus
	err := c.getJSON(ctx, http.MethodGet, "/v1/runs/"+id, nil, &st, true)
	return st, err
}

// WaitRun polls a run until it leaves the running state or ctx expires.
func (c *Client) WaitRun(ctx context.Context, id string, poll time.Duration) (fleet.RunStatus, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	for {
		st, err := c.Run(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State != fleet.RunRunning {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, fmt.Errorf("serve: run %s still %s: %w", id, st.State, ctx.Err())
		case <-time.After(poll):
		}
	}
}

// FleetStats fetches the scheduler's counter snapshot.
func (c *Client) FleetStats(ctx context.Context) (fleet.Stats, error) {
	var st fleet.Stats
	err := c.getJSON(ctx, http.MethodGet, "/v1/fleet/stats", nil, &st, true)
	return st, err
}

// RegisterWorker joins the fleet. Not retried (each call mints a worker).
func (c *Client) RegisterWorker(ctx context.Context) (fleet.RegisterResponse, error) {
	var reg fleet.RegisterResponse
	err := c.getJSON(ctx, http.MethodPost, "/v1/fleet/workers", nil, &reg, false)
	return reg, err
}

// post sends one state transition and discards its empty answer. Never
// auto-retried: the server's answer is something the worker must react to,
// not paper over.
func (c *Client) post(ctx context.Context, path string, body any) error {
	resp, err := c.do(ctx, http.MethodPost, path, body)
	if err != nil {
		return err
	}
	drainBody(resp)
	return nil
}

// Heartbeat renews a worker's liveness. A missed beat is exactly the signal
// the scheduler is designed to notice; the worker loop just beats again on
// its next tick.
func (c *Client) Heartbeat(ctx context.Context, workerID string) error {
	return c.post(ctx, "/v1/fleet/workers/"+workerID+"/heartbeat", nil)
}

// LeaseShard claims one shard attempt; (nil, nil) means no work is ready.
// Never auto-retried: a lease claim is a state transition, and replaying
// one could strand a granted lease nobody executes.
func (c *Client) LeaseShard(ctx context.Context, workerID string) (*fleet.Lease, error) {
	resp, err := c.do(ctx, http.MethodPost, "/v1/fleet/workers/"+workerID+"/lease", nil)
	if err != nil {
		return nil, err
	}
	defer drainBody(resp)
	if resp.StatusCode == http.StatusNoContent {
		return nil, nil
	}
	var l fleet.Lease
	if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
		return nil, fmt.Errorf("serve: decoding lease: %w", err)
	}
	return &l, nil
}

// CompleteLease uploads a shard manifest against a lease; the answer is
// accepted, superseded (409) or rejected (422).
func (c *Client) CompleteLease(ctx context.Context, leaseID string, m *distribute.Manifest) error {
	var body bytes.Buffer
	if err := m.Encode(&body); err != nil {
		return err
	}
	resp, err := c.send(ctx, http.MethodPost, "/v1/fleet/leases/"+leaseID+"/complete", body.Bytes())
	if err != nil {
		return err
	}
	drainBody(resp)
	return nil
}

// FailLease gives a lease back with the reason the attempt produced no
// manifest.
func (c *Client) FailLease(ctx context.Context, leaseID, reason string) error {
	return c.post(ctx, "/v1/fleet/leases/"+leaseID+"/fail", fleet.FailRequest{Reason: reason})
}

// getJSON runs one call and decodes its JSON response into out.
func (c *Client) getJSON(ctx context.Context, method, path string, body, out any, idempotent bool) error {
	var (
		resp *http.Response
		err  error
	)
	if idempotent {
		resp, err = c.doIdempotent(ctx, method, path, body)
	} else {
		resp, err = c.do(ctx, method, path, body)
	}
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("serve: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

func drainBody(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// Stats fetches the server's counter snapshot.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var out Stats
	err := c.getJSON(ctx, http.MethodGet, "/v1/stats", nil, &out, true)
	return out, err
}
