package distribute

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"impressions/internal/core"
	"impressions/internal/fsimage"
)

// specFingerprintVersion versions the SpecFingerprint formula. Bump it
// whenever the formula (or anything folded into it) changes, so stale cache
// entries keyed by an old formula can never be served for a new one.
const specFingerprintVersion = 1

// NormalizeSpec canonicalizes an image spec exactly the way the planner
// would interpret it: the spec is lowered to a Config (core.ConfigFromSpec),
// handed to planGenerator as PlanRequest.Resolve hands its Config, and the
// generator's own reproducibility spec is read back. Two differently-written
// specs that resolve to the same generation inputs normalize to the same
// value, which is what makes SpecFingerprint a usable content address.
func NormalizeSpec(spec fsimage.Spec) (fsimage.Spec, error) {
	cfg, err := core.ConfigFromSpec(spec)
	if err != nil {
		return fsimage.Spec{}, err
	}
	gen, err := planGenerator(cfg)
	if err != nil {
		return fsimage.Spec{}, err
	}
	return gen.Spec(), nil
}

// planGenerator validates and defaults a plan's Config into its generator,
// with a perfect layout forced (so no disk is simulated), because plans
// describe images, not aged disks.
func planGenerator(cfg core.Config) (*core.Generator, error) {
	cfg.LayoutScore = 1.0
	gen, err := core.NewGenerator(cfg)
	if err != nil {
		return nil, fmt.Errorf("distribute: %w", err)
	}
	return gen, nil
}

// SpecFingerprint returns the content address (SHA-256, hex) of the plan a
// spec resolves to under the given sharding parameters: the normalized spec
// plus everything else that determines the plan's bytes — the plan format
// version, the digest formula, the shard count, and the chunk size. Because
// plan building is deterministic, equal fingerprints imply byte-identical
// plans, so the fingerprint is a safe cache key for a plan store.
// A chunkSize <= 0 selects fsimage.DefaultChunkSize, matching the planner.
func SpecFingerprint(spec fsimage.Spec, maxShards, chunkSize int) (string, error) {
	if maxShards < 1 {
		return "", fmt.Errorf("distribute: shard count %d < 1 (%w)", maxShards, fsimage.ErrInvalidSpec)
	}
	if chunkSize <= 0 {
		chunkSize = fsimage.DefaultChunkSize
	}
	norm, err := NormalizeSpec(spec)
	if err != nil {
		return "", err
	}
	raw, err := json.Marshal(norm)
	if err != nil {
		return "", fmt.Errorf("distribute: encoding normalized spec: %w", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "impressions-spec-fp-v%d\nplanfmt:%d algo:%s\nshards:%d chunk:%d\n",
		specFingerprintVersion, FormatVersion, fsimage.DigestVersion, maxShards, chunkSize)
	h.Write(raw)
	h.Write([]byte("\n"))
	return hex.EncodeToString(h.Sum(nil)), nil
}
