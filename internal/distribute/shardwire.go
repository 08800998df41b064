package distribute

import (
	"io"

	"impressions/internal/fsimage"
)

// A shard document serializes one ShardView, so a server can hand a worker
// exactly its slice of a plan instead of the whole plan file (the shape is in
// the package comment). A decoded view executes exactly like one pruned out
// of the plan file — the plan fingerprint reconstructs bit for bit, so
// manifests produced against either are interchangeable.

// shardWireHeader is the "view" object of a shard document.
type shardWireHeader struct {
	FormatVersion int `json:"format_version"`
	Shard         int `json:"shard"`
	// PlanChunks / ImageSHA256 restore the plan's trailer-sealed fields
	// (json:"-" on Plan itself), so Fingerprint() of the decoded plan equals
	// the original's.
	PlanChunks  int    `json:"plan_chunks"`
	ImageSHA256 string `json:"image_sha256"`
	Plan        *Plan  `json:"plan"`
}

// shardHeader is the view header of p's shard.
func shardHeader(p *Plan, shard int) shardWireHeader {
	return shardWireHeader{FormatVersion: FormatVersion, Shard: shard, PlanChunks: p.Chunks, ImageSHA256: p.ImageSHA256, Plan: p}
}

// Encode writes the view as a self-contained shard document: header, the
// tree's directory records plus only this shard's file records streamed
// through hash-guarded chunks, sealing trailer. Peak buffering is one chunk.
func (v *ShardView) Encode(w io.Writer) error {
	_, _, err := writeDocument(w, shardDoc, shardHeader(v.Plan, v.Shard), v.Plan.ChunkSize,
		(&fsimage.Image{Tree: v.Tree, Files: v.Files}).StreamRecords)
	return err
}

// DecodeShardView reads a shard document previously written by
// ShardView.Encode, verifying every record chunk against its integrity hash
// and the sealing trailer, and validating the shard's records against the
// embedded plan header. The decoded view executes exactly like one pruned
// from the full plan: the restored plan fingerprint is bit-identical, so
// manifests bind the same way.
func DecodeShardView(r io.Reader) (*ShardView, error) {
	return decodeShard(r, shardDoc, 0, nil, nil)
}
