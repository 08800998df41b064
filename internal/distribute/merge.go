package distribute

import (
	"fmt"
	"math"

	"impressions/internal/clock"
	"impressions/internal/fsimage"
)

// MergeResult is the stitched outcome of a distributed run.
type MergeResult struct {
	// Image is the complete merged image (metadata from the plan, content
	// proven by the shard manifests).
	Image *fsimage.Image
	// Report is the reproducibility report for the merged image.
	Report fsimage.Report
	// Digest is the canonical image digest combined from the manifests'
	// per-file content hashes; it equals Image.Digest computed by a
	// single process ("" for metadata-only runs, which have no content).
	Digest string
	// Bytes is the total number of bytes the workers wrote.
	Bytes int64
}

// ShardState grades one shard's manifest in an Audit.
type ShardState int

const (
	// ShardMissing: no manifest was presented for the shard.
	ShardMissing ShardState = iota
	// ShardInvalid: a manifest was presented but failed verification —
	// unsealed, tampered, truncated, from a different plan (stale), or
	// contradicting the plan's shard expectations. Its Err says why.
	ShardInvalid
	// ShardVerified: the manifest is sealed, bound to this exact plan, and
	// matches every per-shard expectation.
	ShardVerified
)

// String renders the state for reports.
func (s ShardState) String() string {
	switch s {
	case ShardVerified:
		return "verified"
	case ShardInvalid:
		return "invalid"
	default:
		return "missing"
	}
}

// ShardStatus is one shard's line in an Audit.
type ShardStatus struct {
	Shard    int
	State    ShardState
	Manifest *Manifest // nil unless State == ShardVerified
	// Err explains an invalid manifest; nil for missing and verified.
	Err error
}

// Audit is the shard-by-shard grading of a (possibly incomplete) manifest
// set against a plan: the fault-tolerant core that both Merge and the
// resumable pipeline build on.
type Audit struct {
	// Statuses has exactly one entry per plan shard, in shard order.
	Statuses []ShardStatus
	// ContentHashed reports whether the verified manifests carry content
	// hashes (false for metadata-only runs; meaningless with none verified).
	ContentHashed bool
}

// Complete reports whether every shard verified.
func (a *Audit) Complete() bool {
	for _, st := range a.Statuses {
		if st.State != ShardVerified {
			return false
		}
	}
	return true
}

// Outstanding lists the shards that still need a (re-)run: everything not
// verified, in shard order.
func (a *Audit) Outstanding() []int {
	var out []int
	for _, st := range a.Statuses {
		if st.State != ShardVerified {
			out = append(out, st.Shard)
		}
	}
	return out
}

// Verified counts the shards whose manifests verified.
func (a *Audit) Verified() int {
	n := 0
	for _, st := range a.Statuses {
		if st.State == ShardVerified {
			n++
		}
	}
	return n
}

// checkManifest is the one check of a manifest against the shard-table row
// it is presented for and the fingerprint of the plan that row is from:
// format version, shard, plan binding, seal, totals and entry count. With
// checkEntry over the shard's files it is everything VerifyManifest,
// AuditManifests, Merge and MergeFragments hold a manifest to.
func checkManifest(m *Manifest, fingerprint string, sp ShardPlan) error {
	s := sp.Index
	if m.FormatVersion != FormatVersion {
		return fmt.Errorf("distribute: shard %d manifest format v%d, this build speaks v%d (%w)", s, m.FormatVersion, FormatVersion, fsimage.ErrPlanVersion)
	}
	if m.Shard != s {
		return fmt.Errorf("distribute: manifest for shard %d records shard %d (%w)", s, m.Shard, fsimage.ErrManifestIntegrity)
	}
	if m.PlanFingerprint != fingerprint {
		return fmt.Errorf("distribute: shard %d manifest was produced for a different plan (fingerprint %s, this plan is %s) (%w)",
			s, m.PlanFingerprint, fingerprint, fsimage.ErrManifestIntegrity)
	}
	if err := m.VerifySelf(); err != nil {
		return err
	}
	if m.Dirs != sp.Dirs || m.Files != sp.Files || m.Bytes != sp.Bytes || len(m.FileDigests) != sp.Files {
		return fmt.Errorf("distribute: shard %d wrote %d dirs, %d files (%d listed), %d bytes; plan expects %d, %d, %d (%w)",
			s, m.Dirs, m.Files, len(m.FileDigests), m.Bytes, sp.Dirs, sp.Files, sp.Bytes, fsimage.ErrManifestIntegrity)
	}
	return nil
}

// checkEntry compares the manifest's i-th entry with f, the i-th file the
// plan assigns the shard: same file, same size, and a content hash unless
// the run was metadata-only.
func (m *Manifest) checkEntry(i int, f *fsimage.File) error {
	if i >= len(m.FileDigests) {
		return fmt.Errorf("distribute: shard %d manifest lists %d files, plan assigns it more (%w)", m.Shard, len(m.FileDigests), fsimage.ErrManifestIntegrity)
	}
	fd := m.FileDigests[i]
	if fd.ID != f.ID || fd.Size != f.Size {
		return fmt.Errorf("distribute: shard %d manifest entry %d is file %d of %d bytes, plan assigns file %d of %d bytes (%w)",
			m.Shard, i, fd.ID, fd.Size, f.ID, f.Size, fsimage.ErrManifestIntegrity)
	}
	if m.ContentHashed && fd.SHA256 == "" {
		return fmt.Errorf("distribute: shard %d manifest is missing the content hash of file %d (%w)", m.Shard, f.ID, fsimage.ErrManifestIntegrity)
	}
	return nil
}

// verifyManifest checks a manifest whose shard the plan has against the
// open plan: checkManifest, then checkEntry for every file of the shard.
func verifyManifest(p *OpenPlan, fingerprint string, m *Manifest) error {
	if err := checkManifest(m, fingerprint, p.Plan.Shards[m.Shard]); err != nil {
		return err
	}
	for i, id := range p.FilesByShard[m.Shard] {
		if err := m.checkEntry(i, &p.Image.Files[id]); err != nil {
			return err
		}
	}
	return nil
}

// VerifyManifest checks a single shard manifest against the plan, exactly
// as Merge would. The resumable pipeline uses it to decide whether an
// already-present manifest proves its shard done (skip) or is stale and
// must be regenerated.
func VerifyManifest(p *OpenPlan, m *Manifest) error {
	if m == nil {
		return fmt.Errorf("distribute: nil manifest")
	}
	if m.Shard < 0 || m.Shard >= len(p.Plan.Shards) {
		return fmt.Errorf("distribute: manifest for unknown shard %d (plan has %d shards) (%w)", m.Shard, len(p.Plan.Shards), fsimage.ErrManifestIntegrity)
	}
	return verifyManifest(p, p.Plan.Fingerprint(), m)
}

// AuditManifests grades a manifest set — possibly incomplete, possibly
// holding stale or damaged entries — shard by shard against the plan. It
// never fails on an individual bad manifest (that becomes the shard's
// status); it only errors on set-level contradictions that make grading
// ambiguous: a nil entry, a manifest for an unknown shard, or two manifests
// claiming the same shard.
func AuditManifests(p *OpenPlan, manifests []*Manifest) (*Audit, error) {
	want := len(p.Plan.Shards)
	audit := &Audit{Statuses: make([]ShardStatus, want)}
	for s := range audit.Statuses {
		audit.Statuses[s] = ShardStatus{Shard: s, State: ShardMissing}
	}
	fingerprint := p.Plan.Fingerprint()
	for _, m := range manifests {
		if m == nil {
			return nil, fmt.Errorf("distribute: nil manifest")
		}
		if m.Shard < 0 || m.Shard >= want {
			return nil, fmt.Errorf("distribute: manifest for unknown shard %d (plan has %d shards) (%w)", m.Shard, want, fsimage.ErrManifestIntegrity)
		}
		if audit.Statuses[m.Shard].State != ShardMissing {
			return nil, fmt.Errorf("distribute: duplicate manifest for shard %d (%w)", m.Shard, fsimage.ErrInvalidSpec)
		}
		if err := verifyManifest(p, fingerprint, m); err != nil {
			audit.Statuses[m.Shard] = ShardStatus{Shard: m.Shard, State: ShardInvalid, Err: err}
			continue
		}
		audit.Statuses[m.Shard] = ShardStatus{Shard: m.Shard, State: ShardVerified, Manifest: m}
	}
	// Within one run every shard is either hashed or metadata-only; a mix
	// means manifests from different run modes were combined. The majority
	// mode is taken as the run's intent and the minority shards are the
	// ones marked invalid — anchoring on an arbitrary shard would let one
	// wrong-mode manifest condemn every correct one (and make the re-run
	// hints regenerate the good shards in the wrong mode).
	hashed, plain := 0, 0
	for _, st := range audit.Statuses {
		if st.State == ShardVerified {
			if st.Manifest.ContentHashed {
				hashed++
			} else {
				plain++
			}
		}
	}
	audit.ContentHashed = hashed >= plain && hashed > 0
	for _, st := range audit.Statuses {
		if st.State == ShardVerified && st.Manifest.ContentHashed != audit.ContentHashed {
			s := st.Shard
			audit.Statuses[s] = ShardStatus{Shard: s, State: ShardInvalid,
				Err: fmt.Errorf("distribute: shard %d manifest is %s while the run's majority is %s — mixes metadata-only and full-content runs",
					s, contentModeName(st.Manifest.ContentHashed), contentModeName(audit.ContentHashed))}
		}
	}
	return audit, nil
}

// contentModeName names a manifest's run mode (Manifest.ContentHashed) in
// the audit's diagnostics.
func contentModeName(hashed bool) string {
	if hashed {
		return "full-content"
	}
	return "metadata-only"
}

// Merge verifies the shard manifests against the plan and stitches them
// into a single image, report, and canonical digest. It fails loudly on any
// divergence: a missing, duplicated, or tampered manifest, a manifest from
// a different plan, or per-shard counts, sizes, or hashes that do not match
// the plan's expectations. For incomplete sets, use AuditManifests to learn
// exactly which shards are outstanding instead.
func Merge(p *OpenPlan, manifests []*Manifest) (*MergeResult, error) {
	want := len(p.Plan.Shards)
	if len(manifests) != want {
		return nil, fmt.Errorf("distribute: merge needs %d manifests (one per shard), got %d", want, len(manifests))
	}
	audit, err := AuditManifests(p, manifests)
	if err != nil {
		return nil, err
	}
	for _, st := range audit.Statuses {
		switch st.State {
		case ShardMissing:
			return nil, fmt.Errorf("distribute: missing manifest for shard %d", st.Shard)
		case ShardInvalid:
			return nil, st.Err
		}
	}
	return MergeAudited(p, audit)
}

// MergeAudited stitches a fully verified audit into the merged image,
// report, and canonical digest. It errors if any shard is not verified;
// callers holding an incomplete audit should report audit.Outstanding()
// and re-run those shards instead.
func MergeAudited(p *OpenPlan, audit *Audit) (*MergeResult, error) {
	if !audit.Complete() {
		out := audit.Outstanding()
		return nil, fmt.Errorf("distribute: image incomplete — %d of %d shards verified, outstanding: %v",
			audit.Verified(), len(audit.Statuses), out)
	}
	digests := make([]string, len(p.Image.Files))
	var totalBytes int64
	for _, st := range audit.Statuses {
		for _, fd := range st.Manifest.FileDigests {
			digests[fd.ID] = fd.SHA256
			totalBytes += fd.Size
		}
	}
	if totalBytes != p.Plan.Bytes {
		return nil, fmt.Errorf("distribute: merged bytes %d do not match plan total %d (%w)", totalBytes, p.Plan.Bytes, fsimage.ErrManifestIntegrity)
	}

	res := &MergeResult{Image: p.Image, Bytes: totalBytes}
	if audit.ContentHashed {
		digest, err := fsimage.CombineDigest(p.Image, digests)
		if err != nil {
			return nil, fmt.Errorf("distribute: combining digests: %w", err)
		}
		res.Digest = digest
	}
	spec := p.Image.Spec
	res.Report = fsimage.Report{
		Spec:                spec,
		GeneratedAt:         clock.Now(),
		ActualFiles:         p.Image.FileCount(),
		ActualDirs:          p.Image.DirCount(),
		ActualBytes:         totalBytes,
		AchievedLayoutScore: 1.0,
	}
	if spec.FSSizeBytes > 0 {
		res.Report.SumError = math.Abs(float64(totalBytes-spec.FSSizeBytes)) / float64(spec.FSSizeBytes)
	}
	return res, nil
}
