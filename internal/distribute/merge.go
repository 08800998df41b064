package distribute

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"

	"impressions/internal/clock"
	"impressions/internal/fsimage"
	"impressions/internal/namespace"
)

// A PlanSource replays a plan: it calls open once with the plan header,
// streams the plan's records in canonical order into the sink open returns,
// and returns when the stream has ended. By then the header it handed over
// is sealed — a source that reads the chunk count and chain hash from a
// trailer has filled them in. FragmentSource (and FragmentIndex.Source over
// it) and ResolvedPlan.Source are the two.
type PlanSource func(open func(hdr *Plan) (fsimage.RecordSink, error)) error

// MergeResult is what Merge finds: one grade per shard and, once every
// shard has verified, the merged report and the canonical digest.
type MergeResult struct {
	// Plan is the sealed plan header the manifests were held to.
	Plan *Plan
	// Statuses has exactly one entry per plan shard, in shard order.
	Statuses []ShardStatus
	// ContentHashed reports whether the verified manifests carry content
	// hashes (false for metadata-only runs; meaningless with none verified).
	ContentHashed bool
	// Report is the reproducibility report of the merged image; zero unless
	// every shard verified.
	Report fsimage.Report
	// Digest is the canonical image digest folded from the manifests'
	// per-file content hashes; it equals the digest a single process
	// computes. It is "" unless every shard verified with content hashes.
	Digest string
	// maxFileDepth is the depth of the plan's deepest file, for Summary.
	maxFileDepth int
}

// ShardState grades one shard's manifest in a MergeResult.
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

// ShardStatus is one shard's line in a MergeResult.
type ShardStatus struct {
	Shard    int
	State    ShardState
	Manifest *Manifest // nil unless State == ShardVerified
	// Err explains an invalid manifest; nil for missing and verified.
	Err error
}

// Complete reports whether every shard verified.
func (r *MergeResult) Complete() bool { return r.Verified() == len(r.Statuses) }

// Verified counts the shards whose manifests verified.
func (r *MergeResult) Verified() int {
	n := 0
	for _, st := range r.Statuses {
		if st.State == ShardVerified {
			n++
		}
	}
	return n
}

// Err is nil for a complete merge, and otherwise says what keeps the first
// shard that did not verify from it.
func (r *MergeResult) Err() error {
	for _, st := range r.Statuses {
		switch st.State {
		case ShardMissing:
			return fmt.Errorf("distribute: missing manifest for shard %d", st.Shard)
		case ShardInvalid:
			return st.Err
		}
	}
	return nil
}

// Summary describes the merged image as fsimage.Image.Summary would.
func (r *MergeResult) Summary() string {
	return fsimage.Summary(r.Plan.Files, r.Plan.Dirs, r.Plan.Bytes, r.maxFileDepth)
}

// checkManifest is the one check of a manifest against the shard-table row
// it is presented for and the fingerprint of the plan that row is from:
// format version, shard, plan binding, seal, totals and entry count. With
// checkEntry over the shard's files (or ManifestCheck's hash of them) it is
// everything a manifest is held to.
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

// byShard files a manifest set by shard: nil where none was presented.
// It refuses what makes grading ambiguous: a nil entry, a manifest for a
// shard the plan does not have, or two manifests claiming the same shard.
func byShard(hdr *Plan, manifests []*Manifest) ([]*Manifest, error) {
	out := make([]*Manifest, len(hdr.Shards))
	for _, m := range manifests {
		if m == nil {
			return nil, fmt.Errorf("distribute: nil manifest")
		}
		if m.Shard < 0 || m.Shard >= len(out) {
			return nil, fmt.Errorf("distribute: manifest for unknown shard %d (plan has %d shards) (%w)", m.Shard, len(out), fsimage.ErrManifestIntegrity)
		}
		if out[m.Shard] != nil {
			return nil, fmt.Errorf("distribute: duplicate manifest for shard %d (%w)", m.Shard, fsimage.ErrInvalidSpec)
		}
		out[m.Shard] = m
	}
	return out, nil
}

// merger is Merge's sink side: the record check, one cursor per shard into
// its manifest, and the digest fold over the check's tree.
type merger struct {
	check     *recordCheck
	manifests []*Manifest // by shard, nil where none was presented
	cursors   []int
	entryErrs []error
	fold      *fsimage.DigestFold // nil unless every shard's manifest is present and hashed
	maxDepth  int
}

// Merge is the one merge. It replays the plan src delivers through the
// record check — tree, rebuilt partition, every shard's expectations —
// holds each file to its shard's manifest, and grades every shard: missing,
// invalid with its error, or verified. Within one run every shard is either
// hashed or metadata-only, so a mix means manifests from different run modes
// were combined; the majority mode is taken as the run's intent and the
// minority shards are the invalid ones, so one wrong-mode manifest cannot
// condemn every correct one (nor make re-run hints regenerate the good shards
// in the wrong mode). When every shard verifies, the result carries the
// merged report and, for hashed manifests, the canonical digest, folded in
// the same pass.
//
// A bad manifest is its shard's grade, not an error. Merge fails on a plan
// that does not verify and on a manifest set it cannot grade (see byShard).
// It holds O(dirs + chunk) beside the manifests.
func Merge(src PlanSource, manifests []*Manifest) (*MergeResult, error) {
	var m *merger
	if err := checkPlan(src, func(c *recordCheck) error {
		filed, err := byShard(c.hdr, manifests)
		if err != nil {
			return err
		}
		m = &merger{check: c, manifests: filed, cursors: make([]int, len(filed)), entryErrs: make([]error, len(filed))}
		c.onFile = m.addFile
		for _, mf := range filed {
			if mf == nil || !mf.ContentHashed {
				return nil
			}
		}
		m.fold = fsimage.NewDigestFold(c.hdr.Dirs, c.hdr.Files, c.hdr.Bytes)
		c.onTree = func(_ *Plan, tree *namespace.Tree) error {
			for id := range tree.Len() {
				m.fold.AddDir(tree, id)
			}
			return nil
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return m.result()
}

// checkPlan replays the plan src delivers through the record check of the
// whole plan, once open has fitted the check with its hooks, and finishes
// the check.
func checkPlan(src PlanSource, open func(*recordCheck) error) error {
	var c *recordCheck
	if err := src(func(hdr *Plan) (fsimage.RecordSink, error) {
		if err := checkHeader(hdr); err != nil {
			return nil, err
		}
		c = newRecordCheck(hdr, -1)
		return c.ts, open(c)
	}); err != nil {
		return err
	}
	if c == nil {
		return fmt.Errorf("distribute: the plan source delivered no plan")
	}
	return c.finish()
}

// addFile holds the next file to its shard's manifest and folds its line,
// with the manifest's content hash, into the digest.
func (m *merger) addFile(f fsimage.File, shard int) error {
	m.maxDepth = max(m.maxDepth, f.Depth)
	mf := m.manifests[shard]
	if mf == nil || m.entryErrs[shard] != nil {
		return nil
	}
	i := m.cursors[shard]
	m.cursors[shard]++
	if m.entryErrs[shard] = mf.checkEntry(i, &f); m.entryErrs[shard] == nil && m.fold != nil {
		m.fold.AddFile(m.check.ts.Tree(), f, mf.FileDigests[i].SHA256)
	}
	return nil
}

// result grades the shards against the sealed header and completes what
// verified.
func (m *merger) result() (*MergeResult, error) {
	hdr := m.check.hdr
	fingerprint := hdr.Fingerprint()
	res := &MergeResult{Plan: hdr, Statuses: make([]ShardStatus, len(m.manifests)), maxFileDepth: m.maxDepth}
	hashed, plain := 0, 0
	for s, mf := range m.manifests {
		res.Statuses[s] = ShardStatus{Shard: s, State: ShardMissing}
		if mf == nil {
			continue
		}
		err := checkManifest(mf, fingerprint, hdr.Shards[s])
		if err == nil {
			err = m.entryErrs[s]
		}
		if err != nil {
			res.Statuses[s] = ShardStatus{Shard: s, State: ShardInvalid, Err: err}
			continue
		}
		res.Statuses[s] = ShardStatus{Shard: s, State: ShardVerified, Manifest: mf}
		if mf.ContentHashed {
			hashed++
		} else {
			plain++
		}
	}
	res.ContentHashed = hashed >= plain && hashed > 0
	for s, st := range res.Statuses {
		if st.State == ShardVerified && st.Manifest.ContentHashed != res.ContentHashed {
			res.Statuses[s] = ShardStatus{Shard: s, State: ShardInvalid,
				Err: fmt.Errorf("distribute: shard %d manifest is %s while the run's majority is %s — mixes metadata-only and full-content runs (%w)",
					s, contentModeName(st.Manifest.ContentHashed), contentModeName(res.ContentHashed), fsimage.ErrManifestIntegrity)}
		}
	}
	if !res.Complete() {
		return res, nil
	}
	res.Report = fsimage.Report{
		Spec:                hdr.Spec,
		GeneratedAt:         clock.Now(),
		ActualFiles:         hdr.Files,
		ActualDirs:          hdr.Dirs,
		ActualBytes:         hdr.Bytes,
		AchievedLayoutScore: 1.0,
	}
	if size := hdr.Spec.FSSizeBytes; size > 0 {
		res.Report.SumError = math.Abs(float64(hdr.Bytes-size)) / float64(size)
	}
	if res.ContentHashed {
		digest, err := m.fold.Sum()
		if err != nil {
			return nil, fmt.Errorf("distribute: %w (%w)", err, fsimage.ErrManifestIntegrity)
		}
		res.Digest = digest
	}
	return res, nil
}

// contentModeName names a manifest's run mode (Manifest.ContentHashed) in
// the grades' diagnostics.
func contentModeName(hashed bool) string {
	if hashed {
		return "full-content"
	}
	return "metadata-only"
}

// ManifestCheck holds one shard manifest at a time to a plan in O(shards):
// the sealed header and, per shard, a hash of the (ID, size) sequence of its
// files. It is what a scheduler that commits shards one by one keeps of the
// plan instead of the plan; a manifest it accepts is one Merge verifies.
type ManifestCheck struct {
	// Plan is the sealed plan header.
	Plan        *Plan
	fingerprint string
	entries     [][sha256.Size]byte
}

// entryHash hashes a shard's (ID, size) sequence, one file at a time.
type entryHash struct {
	h   hash.Hash
	buf []byte
}

func (e *entryHash) add(id int, size int64) {
	e.buf = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(e.buf[:0], uint64(id)), uint64(size))
	e.h.Write(e.buf)
}

func (e *entryHash) sum() (out [sha256.Size]byte) {
	e.h.Sum(out[:0])
	return out
}

// NewManifestCheck replays the plan src delivers once, through the record
// check, and keeps what Verify needs.
func NewManifestCheck(src PlanSource) (*ManifestCheck, error) {
	var (
		hdr    *Plan
		shards []entryHash
	)
	if err := checkPlan(src, func(c *recordCheck) error {
		hdr, shards = c.hdr, make([]entryHash, len(c.hdr.Shards))
		for s := range shards {
			shards[s].h = sha256.New()
		}
		c.onFile = func(f fsimage.File, s int) error {
			shards[s].add(f.ID, f.Size)
			return nil
		}
		return nil
	}); err != nil {
		return nil, err
	}
	mc := &ManifestCheck{Plan: hdr, fingerprint: hdr.Fingerprint(), entries: make([][sha256.Size]byte, len(shards))}
	for s := range shards {
		mc.entries[s] = shards[s].sum()
	}
	return mc, nil
}

// Verify holds a manifest to the plan: checkManifest, then its entries
// against the plan's files of its shard — same files in the same order, of
// the same sizes, each with a content hash unless the run was metadata-only.
func (c *ManifestCheck) Verify(m *Manifest) error {
	if m == nil {
		return fmt.Errorf("distribute: nil manifest")
	}
	if m.Shard < 0 || m.Shard >= len(c.Plan.Shards) {
		return fmt.Errorf("distribute: manifest for unknown shard %d (plan has %d shards) (%w)", m.Shard, len(c.Plan.Shards), fsimage.ErrManifestIntegrity)
	}
	if err := checkManifest(m, c.fingerprint, c.Plan.Shards[m.Shard]); err != nil {
		return err
	}
	e := entryHash{h: sha256.New()}
	for _, fd := range m.FileDigests {
		if m.ContentHashed && fd.SHA256 == "" {
			return fmt.Errorf("distribute: shard %d manifest is missing the content hash of file %d (%w)", m.Shard, fd.ID, fsimage.ErrManifestIntegrity)
		}
		e.add(fd.ID, fd.Size)
	}
	if e.sum() != c.entries[m.Shard] {
		return fmt.Errorf("distribute: shard %d manifest lists other files, or other sizes, than the plan assigns the shard (%w)", m.Shard, fsimage.ErrManifestIntegrity)
	}
	return nil
}
