package fleet

// The wire types of the fleet protocol: what workers and run submitters
// exchange with the daemon. Durations cross the wire as integral
// milliseconds so clients in any language (and shell scripts reading run
// status with jq) parse them without Go duration syntax.

// RegisterResponse tells a new worker its identity and the cadence the
// scheduler expects from it.
type RegisterResponse struct {
	WorkerID string `json:"worker_id"`
	// HeartbeatMillis is how often the worker must heartbeat; missing
	// several in a row marks it dead and expires its leases.
	HeartbeatMillis int64 `json:"heartbeat_millis"`
	// LeaseTTLMillis is the per-attempt deadline: a lease not completed
	// within it is expired and its shard re-queued.
	LeaseTTLMillis int64 `json:"lease_ttl_millis"`
	// PollMillis is the suggested idle poll interval when no work is
	// available.
	PollMillis int64 `json:"poll_millis"`
}

// Lease is one granted shard attempt: the unit of work a worker pulls.
type Lease struct {
	LeaseID     string `json:"lease_id"`
	RunID       string `json:"run_id"`
	Fingerprint string `json:"fingerprint"`
	Shard       int    `json:"shard"`
	// Attempt is 1 for a shard's first execution; retries increment it.
	Attempt int `json:"attempt"`
	// TTLMillis is the time remaining until the lease expires.
	TTLMillis int64 `json:"ttl_millis"`
}

// FailRequest is the body of POST /v1/fleet/leases/{id}/fail: why the
// attempt ended without a manifest.
type FailRequest struct {
	Reason string `json:"reason"`
}

// RunState is a run's lifecycle phase.
type RunState string

const (
	RunRunning  RunState = "running"
	RunComplete RunState = "complete"
	RunFailed   RunState = "failed"
)

// ShardPhase is one shard's scheduling state within a run.
type ShardPhase string

const (
	ShardPending   ShardPhase = "pending"
	ShardLeased    ShardPhase = "leased"
	ShardCommitted ShardPhase = "committed"
)

// RunShard is one shard's line in a run status.
type RunShard struct {
	Shard    int        `json:"shard"`
	Phase    ShardPhase `json:"phase"`
	Attempts int        `json:"attempts"`
	// Worker is the worker holding the lease ("inline" for the daemon's
	// fallback executor) or the one that committed the shard.
	Worker string `json:"worker,omitempty"`
	// LastError is the most recent failure recorded for the shard (an
	// expired lease, a failed attempt, a rejected manifest).
	LastError string `json:"last_error,omitempty"`
}

// Outstanding names one not-yet-committed shard with the exact standalone
// worker command that produces its manifest — the same triage contract
// `merge -partial` prints, so a wedged fleet run is recoverable by hand.
type Outstanding struct {
	Shard    int    `json:"shard"`
	Attempts int    `json:"attempts"`
	Command  string `json:"command"`
}

// RunStatus is the GET /v1/runs/{id} document.
type RunStatus struct {
	ID          string   `json:"id"`
	Fingerprint string   `json:"fingerprint"`
	State       RunState `json:"state"`
	// Shards has one entry per plan shard, in shard order.
	Shards      []RunShard `json:"shards"`
	Committed   int        `json:"committed"`
	TotalShards int        `json:"total_shards"`
	// Requeues counts every time a shard went back to pending after a
	// granted lease (expiry, worker death, failed attempt, rejected manifest).
	Requeues int `json:"requeues"`
	// Digest is the canonical image digest, set when State is complete.
	Digest string `json:"digest,omitempty"`
	// Error describes a failed run.
	Error string `json:"error,omitempty"`
	// Outstanding lists every non-committed shard with its re-run command;
	// empty once the run completes.
	Outstanding []Outstanding `json:"outstanding,omitempty"`
	// ElapsedMillis is time since the run was created (to completion for
	// finished runs).
	ElapsedMillis int64 `json:"elapsed_millis"`
}

// Stats is the fleet-wide counter snapshot (GET /v1/fleet/stats).
type Stats struct {
	WorkersLive  int `json:"workers_live"`
	WorkersTotal int `json:"workers_total"`

	RunsActive    int   `json:"runs_active"`
	RunsCompleted int64 `json:"runs_completed"`
	RunsFailed    int64 `json:"runs_failed"`

	LeasesGranted     int64 `json:"leases_granted"`
	LeasesExpired     int64 `json:"leases_expired"`
	Requeues          int64 `json:"requeues"`
	ShardsCommitted   int64 `json:"shards_committed"`
	ManifestsRejected int64 `json:"manifests_rejected"`
	InlineShards      int64 `json:"inline_shards"`

	// LeaseExpiryP50Millis / P95Millis describe how long expired leases had
	// been held when the scheduler reclaimed them (over the last
	// expiryWindow expiries) — the fleet's fault-detection latency.
	LeaseExpiryP50Millis float64 `json:"lease_expiry_p50_millis"`
	LeaseExpiryP95Millis float64 `json:"lease_expiry_p95_millis"`
}
