package serve

import (
	"impressions/internal/fsimage"
)

// The wire types shared by the server and its client. Every request body is
// JSON; plan and shard responses stream the distribute package's own wire
// documents (a plan document, a shard-view document), so anything that can
// read a plan file can read the service's responses.

// Response headers.
const (
	// HeaderFingerprint carries the plan's content address on plan and shard
	// responses.
	HeaderFingerprint = "X-Impressions-Plan-Fingerprint"
	// HeaderCache reports how a plan response was satisfied: "hit" (served
	// from the store), "miss" (this request built it), "coalesced" (another
	// in-flight request built it), or "bypass" (built but evicted before it
	// could be re-read; streamed directly).
	HeaderCache = "X-Impressions-Cache"
	// HeaderImageDigest carries the canonical image digest as an HTTP
	// trailer on GET /v1/runs/{id}/image.tar responses — the archive
	// streams before the digest is known, so it travels behind the body.
	HeaderImageDigest = "X-Impressions-Image-Digest"
)

// PlanRequest asks for the plan of an image spec, partitioned for
// distributed execution. The spec is normalized server-side
// (distribute.NormalizeSpec), so equivalent specs share one cache entry.
type PlanRequest struct {
	Spec fsimage.Spec `json:"spec"`
	// Shards is the worker count to partition for (default 1).
	Shards int `json:"shards,omitempty"`
	// ChunkSize is the metadata records per plan chunk (0 selects
	// fsimage.DefaultChunkSize).
	ChunkSize int `json:"chunk_size,omitempty"`
	// Partition, when > 0, asks for a partitioned plan: the server builds
	// Partition self-contained fragment documents (content-addressed like
	// plans, so the fleet scheduler can lease planning work) and responds
	// with a fragment index instead of a monolithic plan document. Fetch
	// fragments via GET /v1/plans/{fp}/fragments/{i}. Shards must be zero or
	// equal to Partition — fragments are shard documents, the counts name
	// the same cut.
	Partition int `json:"partition,omitempty"`
}

// GenerateRequest asks for a small image to be generated inline.
type GenerateRequest struct {
	Spec fsimage.Spec `json:"spec"`
}

// GenerateResponse reports an inline generation: the canonical image digest
// and the reproducibility report.
type GenerateResponse struct {
	Digest string         `json:"digest"`
	Report fsimage.Report `json:"report"`
}

// Stats is the server's counter snapshot (GET /v1/stats).
type Stats struct {
	PlansBuilt      int64   `json:"plans_built"`
	PlanCacheHits   int64   `json:"plan_cache_hits"`
	PlanCacheMisses int64   `json:"plan_cache_misses"`
	PlanCacheBypass int64   `json:"plan_cache_bypass"`
	CoalescedBuilds int64   `json:"coalesced_builds"`
	ShardsServed    int64   `json:"shards_served"`
	InlineGenerates int64   `json:"inline_generates"`
	ImagesServed    int64   `json:"images_served"`
	UptimeSeconds   float64 `json:"uptime_seconds"`
}

type errorResponse struct {
	Error string `json:"error"`
}
