package distribute

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"

	"impressions/internal/core"
	"impressions/internal/fsimage"
	"impressions/internal/namespace"
)

// Partitioned planning: the plan itself built as K independent fragments.
//
// A plan fragment IS a shard document — the exact wire format
// ShardView.Encode produces and workers already consume (DecodeShardView,
// Execute, the serve layer's shard endpoint). PartitionPlan resolves the
// metadata pass once, seals the monolithic plan header (chunk
// count + chain hash, so the fragment-embedded plan fingerprints
// bit-identically to the monolithic file's), and then routes one record
// replay through K incremental shard-document encoders. Nothing retains the
// image: live state is the compact tree plus K chunk buffers, and with the
// spill knob set (Config.SpillDir) even the metadata columns live on disk,
// so a 10⁸-file plan builds in O(dirs) heap.
//
// Fragment i is byte-identical whether produced by PartitionPlan or by
// slicing a monolithic plan file (DecodePlanShard → Encode) — both derive
// from the same seed-keyed metadata replay — so fragments interoperate with
// every existing consumer.
//
// MergeFragments is the no-O(image) verification pass: it streams all K
// fragment documents through a DigestBuilder (plus each shard's manifest)
// and reproduces the canonical image digest while holding the tree and
// O(K × chunk) buffers.

// FragmentIndexVersion is the fragment-index wire version.
const FragmentIndexVersion = 1

// FragmentIndex describes a partitioned plan: the parent plan's identity
// plus the names of its fragment documents. It is what `plan -partition`
// writes at the plan path (fragments land next to it) and what the serve
// layer stores under the plan fingerprint.
type FragmentIndex struct {
	FormatVersion int `json:"format_version"`
	// Fingerprint is the parent plan's Fingerprint(); every fragment's
	// embedded plan header reproduces it bit for bit.
	Fingerprint string `json:"fingerprint"`
	Shards      int    `json:"shards"`
	Files       int    `json:"files"`
	Dirs        int    `json:"dirs"`
	Bytes       int64  `json:"bytes"`
	// Fragments names each shard's fragment document: bare file names,
	// resolved in the index's own directory. DecodeFragmentIndex rejects an
	// empty name, ".", "..", and anything with a path separator.
	Fragments []string `json:"fragments"`
}

// FragmentIndex describes the plan as partitioned into one fragment per
// shard, fragment s under the name name(s).
func (p *Plan) FragmentIndex(name func(shard int) string) *FragmentIndex {
	ix := &FragmentIndex{FormatVersion: FragmentIndexVersion, Fingerprint: p.Fingerprint(), Shards: len(p.Shards),
		Files: p.Files, Dirs: p.Dirs, Bytes: p.Bytes, Fragments: make([]string, len(p.Shards))}
	for s := range ix.Fragments {
		ix.Fragments[s] = name(s)
	}
	return ix
}

// Encode writes the index as JSON.
func (ix *FragmentIndex) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ix); err != nil {
		return fmt.Errorf("distribute: encoding fragment index: %w", err)
	}
	return nil
}

// DecodeFragmentIndex reads a fragment index written by Encode.
func DecodeFragmentIndex(r io.Reader) (*FragmentIndex, error) {
	var ix FragmentIndex
	if err := decodeJSONArtifact(r, "fragment index", &ix); err != nil {
		return nil, err
	}
	if ix.FormatVersion != FragmentIndexVersion {
		return nil, fmt.Errorf("distribute: fragment index v%d, this build speaks v%d (%w)", ix.FormatVersion, FragmentIndexVersion, fsimage.ErrPlanVersion)
	}
	if ix.Shards != len(ix.Fragments) {
		return nil, fmt.Errorf("distribute: fragment index promises %d shards but names %d fragments (%w)", ix.Shards, len(ix.Fragments), fsimage.ErrManifestIntegrity)
	}
	// Readers open the names next to the index: anything but a bare file
	// name would let the index point them at any file they can read.
	for s, name := range ix.Fragments {
		if name != filepath.Base(name) || name == "." || name == ".." {
			return nil, fmt.Errorf("distribute: fragment index names fragment %d %q, not a file name in the index's directory (%w)", s, name, fsimage.ErrManifestIntegrity)
		}
	}
	return &ix, nil
}

// LoadFragmentIndex reads a fragment index file.
func LoadFragmentIndex(path string) (*FragmentIndex, error) {
	return loadFile(path, DecodeFragmentIndex)
}

// FragmentName returns the conventional fragment basename for a shard,
// derived from the index (plan) path's basename.
func FragmentName(planBase string, shard int) string {
	return fmt.Sprintf("%s.frag%d", planBase, shard)
}

// sealedPlan is the shared front half of BuildPlan and PartitionPlan: the
// resolved metadata pass (the caller Closes it), the partition, and the plan
// header sealed against the monolithic chunk chain.
type sealedPlan struct {
	plan *Plan
	part *namespace.Partition
	meta *core.Metadata
	// dirHashes are the record hashes of the chain's directory chunks. Every
	// fragment opens with the same directory records at the same chunk size
	// and index, so these are its first chunk hashes too.
	dirHashes []string
}

func sealPlan(ctx context.Context, req PlanRequest) (*sealedPlan, error) {
	m, err := resolvePlanMetadata(ctx, req.Config, req.MaxShards)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			m.Close()
		}
	}()
	p, part, err := planScaffold(m, req.MaxShards, req.ChunkSize)
	if err != nil {
		return nil, err
	}
	// Seal the monolithic chunk chain without writing it anywhere: the
	// fragment headers must carry the exact Chunks/ImageSHA256 the
	// monolithic plan file would, or the fingerprint manifests bind to
	// would diverge between partitioned and single-document planning.
	sp := &sealedPlan{plan: p, part: part, meta: m}
	enc := fsimage.NewChunkEncoder(p.ChunkSize, func(c *fsimage.Chunk) error {
		if len(c.Dirs) > 0 {
			sp.dirHashes = append(sp.dirHashes, c.SHA256)
		}
		return nil
	})
	if err := m.StreamRecords(enc); err != nil {
		return nil, fmt.Errorf("distribute: hashing metadata chunks: %w", err)
	}
	if err := enc.Close(); err != nil {
		return nil, fmt.Errorf("distribute: hashing metadata chunks: %w", err)
	}
	p.Chunks = enc.Chunks()
	p.ImageSHA256 = enc.ChainHash()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ok = true
	return sp, nil
}

// fragmentRouter is the RecordSink that fans one metadata replay out to the
// fragment encoders. Each file record goes to its shard's encoder only. The
// directory section is the same bytes in every fragment, so the router
// renders each directory chunk once, sealed with the hash sealPlan kept,
// writes it to every fragment, and has the encoders resume behind it at the
// first file chunk: directory records are hashed once and rendered once,
// whatever K is, and no rendered chunk outlives its writes.
type fragmentRouter struct {
	ctx  context.Context
	sp   *sealedPlan
	docs []*docWriter
	n    int

	dirs  fsimage.Chunk // the directory chunk being filled
	buf   []byte        // its rendering
	files bool          // the section is written and the encoders have resumed
}

func (r *fragmentRouter) poll() error {
	const cancelCheckStride = 4096
	if r.n%cancelCheckStride == 0 {
		if err := r.ctx.Err(); err != nil {
			return err
		}
	}
	r.n++
	return nil
}

func (r *fragmentRouter) AddDir(d fsimage.DirRecord) error {
	if err := r.poll(); err != nil {
		return err
	}
	if r.files {
		return fmt.Errorf("distribute: directory record %d after the file stream began", d.ID)
	}
	r.dirs.Dirs = append(r.dirs.Dirs, d)
	if len(r.dirs.Dirs) >= r.sp.plan.ChunkSize {
		return r.flushDirs()
	}
	return nil
}

// flushDirs writes the buffered directory chunk to every fragment. Its hash
// is there: sealPlan's pass cut the same tree at the same chunk size.
func (r *fragmentRouter) flushDirs() error {
	if len(r.dirs.Dirs) == 0 {
		return nil
	}
	r.dirs.SHA256 = r.sp.dirHashes[r.dirs.Index]
	var err error
	if r.buf, err = appendChunkElement(r.buf[:0], &r.dirs); err != nil {
		return err
	}
	for _, d := range r.docs {
		if _, err := d.bw.Write(r.buf); err != nil {
			return err
		}
	}
	r.dirs.Index++
	r.dirs.Dirs = r.dirs.Dirs[:0]
	return nil
}

// beginFiles closes the directory section and resumes every encoder behind
// it.
func (r *fragmentRouter) beginFiles() error {
	if err := r.flushDirs(); err != nil {
		return err
	}
	if r.dirs.Index != len(r.sp.dirHashes) {
		return fmt.Errorf("distribute: the replay carried %d directory chunks, the plan was sealed over %d (%w)", r.dirs.Index, len(r.sp.dirHashes), fsimage.ErrManifestIntegrity)
	}
	for _, d := range r.docs {
		d.resumeAfter(r.sp.dirHashes)
	}
	r.files = true
	return nil
}

func (r *fragmentRouter) AddFile(f fsimage.File) error {
	if err := r.poll(); err != nil {
		return err
	}
	if !r.files {
		if err := r.beginFiles(); err != nil {
			return err
		}
	}
	return r.docs[r.sp.part.ShardOf(f.DirID)].AddFile(f)
}

// writeFragments replays the metadata once through a router over one shard
// document per writer (writers[s] receives fragment s) and seals them.
func (sp *sealedPlan) writeFragments(ctx context.Context, writers []io.WriteCloser) error {
	router := &fragmentRouter{ctx: ctx, sp: sp, docs: make([]*docWriter, len(writers))}
	for s, w := range writers {
		var err error
		if router.docs[s], err = newDocWriter(w, shardDoc, shardHeader(sp.plan, s), sp.plan.ChunkSize); err != nil {
			return err
		}
	}
	if err := sp.meta.StreamRecords(router); err != nil {
		return fmt.Errorf("distribute: routing records to fragments: %w", err)
	}
	if !router.files { // an image without files
		if err := router.beginFiles(); err != nil {
			return err
		}
	}
	for s, d := range router.docs {
		if _, _, err := d.Close(); err != nil {
			return fmt.Errorf("distribute: sealing fragment %d: %w", s, err)
		}
	}
	return nil
}

// PartitionPlan builds a partitioned plan: the request's MaxShards
// fragments, each a self-contained shard document written to the writer open
// returns for it. Fragments are byte-identical
// to slicing the monolithic plan file (DecodePlanShard → ShardView.Encode),
// so every existing consumer — workers, manifests, the serve layer — works
// on them unchanged. The returned plan is the sealed parent header (no
// image retained); its Fingerprint is what each fragment reproduces and
// what an index should record.
//
// Live memory is the compact tree plus one chunk buffer per fragment;
// combined with Config.SpillDir the whole build runs in O(dirs) heap.
func PartitionPlan(ctx context.Context, req PlanRequest, open func(shard int) (io.WriteCloser, error)) (*Plan, error) {
	sp, err := sealPlan(ctx, req)
	if err != nil {
		return nil, err
	}
	defer sp.meta.Close()

	wcs := make([]io.WriteCloser, len(sp.plan.Shards))
	closeAll := func() {
		for _, wc := range wcs {
			if wc != nil {
				wc.Close()
			}
		}
	}
	for s := range wcs {
		wc, err := open(s)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("distribute: opening fragment %d: %w", s, err)
		}
		wcs[s] = wc
	}
	if err := sp.writeFragments(ctx, wcs); err != nil {
		closeAll()
		return nil, err
	}
	for s, wc := range wcs {
		wcs[s] = nil
		if err := wc.Close(); err != nil {
			closeAll()
			return nil, fmt.Errorf("distribute: closing fragment %d: %w", s, err)
		}
	}
	return sp.plan, nil
}

// FragmentMergeResult is the outcome of a fragment-stream merge: the
// canonical image digest (when the manifests carry content hashes) and the
// verified totals. Unlike MergeResult it retains no image — the whole point
// of the fragment pipeline is that no node ever holds one.
type FragmentMergeResult struct {
	// Digest is the canonical image digest, empty when the manifests carry
	// no content hashes (hashing disabled fleet-wide).
	Digest string
	// Fingerprint is the plan fingerprint every fragment and manifest bound.
	Fingerprint string
	Dirs        int
	Files       int
	Bytes       int64
}

// dirsum folds a decoded fragment's directory table into a hash so sibling
// fragments' trees can be cross-checked cheaply.
func dirsum(tree *namespace.Tree) string {
	h := sha256.New()
	for i := range tree.Dirs {
		d := &tree.Dirs[i]
		fmt.Fprintf(h, "%d %d %q %v %g\n", d.ID, d.Parent, d.Name, d.Special, d.Bias)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fragmentStream is one decoding goroutine's channel bundle.
type fragmentStream struct {
	files chan fsimage.File
	done  chan error
	view  *ShardView
}

// MergeFragments verifies a complete partitioned run — K fragment documents
// plus the K worker manifests produced against them — and reproduces the
// canonical image digest without materializing an image: fragment 0's
// directory stream seeds a DigestBuilder, the K file streams are merged by
// ascending file ID (shards partition the ID space; each stream is
// ascending), and each file's content hash is zipped from its shard's
// manifest. open is called once per shard with the fragment's reader.
//
// Every integrity property the monolithic Merge enforces is enforced here:
// manifest self-hashes, fingerprint binding (all fragments and manifests
// must bind one plan), per-shard totals against the sealed expectations,
// per-file ID/size agreement between fragment and manifest, and the digest
// header totals. Memory is O(dirs + K·chunk).
func MergeFragments(ctx context.Context, open func(shard int) (io.ReadCloser, error), manifests []*Manifest) (*FragmentMergeResult, error) {
	k := len(manifests)
	if k == 0 {
		return nil, fmt.Errorf("distribute: no manifests to merge (%w)", fsimage.ErrInvalidSpec)
	}
	for s, mf := range manifests {
		if mf == nil {
			return nil, fmt.Errorf("distribute: missing manifest for shard %d (%w)", s, fsimage.ErrManifestIntegrity)
		}
	}
	contentHashed := manifests[0].ContentHashed

	// One goroutine per fragment: decode, stream validated files into a
	// bounded channel, report the finished view. Fragment 0 additionally
	// hands over the plan header and tree the moment its directory stream
	// completes, so the digest fold starts while files still stream.
	type treeReady struct {
		hdr  *Plan
		tree *namespace.Tree
	}
	readyCh := make(chan treeReady, 1)
	abort := make(chan struct{})
	defer close(abort)
	streams := make([]*fragmentStream, k)
	for s := 0; s < k; s++ {
		fs := &fragmentStream{files: make(chan fsimage.File, 256), done: make(chan error, 1)}
		streams[s] = fs
		go func(s int) {
			defer close(fs.files)
			rc, err := open(s)
			if err != nil {
				fs.done <- fmt.Errorf("distribute: opening fragment %d: %w", s, err)
				return
			}
			defer rc.Close()
			var onTree func(*Plan, *namespace.Tree) error
			if s == 0 {
				onTree = func(hdr *Plan, tree *namespace.Tree) error {
					select {
					case readyCh <- treeReady{hdr: hdr, tree: tree}:
						return nil
					case <-abort:
						return ctx.Err()
					}
				}
			}
			view, err := decodeShard(rc, shardDoc, 0, func(f fsimage.File) error {
				select {
				case fs.files <- f:
					return nil
				case <-abort:
					if err := ctx.Err(); err != nil {
						return err
					}
					return fmt.Errorf("distribute: fragment merge aborted")
				}
			}, onTree)
			if err != nil {
				fs.done <- err
				return
			}
			fs.view = view
			fs.done <- nil
		}(s)
	}

	// Wait for fragment 0's tree (or its failure).
	var hdr *Plan
	var tree *namespace.Tree
	select {
	case r := <-readyCh:
		hdr, tree = r.hdr, r.tree
	case err := <-streams[0].done:
		// A fragment 0 small enough for the files channel can hand over its
		// tree and finish before this select runs; both cases are then ready
		// and Go picks one at random. The hand-over wins whenever it
		// happened, and done goes back for the collection below.
		select {
		case r := <-readyCh:
			hdr, tree = r.hdr, r.tree
			streams[0].done <- err
		default:
			if err == nil {
				err = fmt.Errorf("distribute: fragment 0 delivered no tree (%w)", fsimage.ErrManifestIntegrity)
			}
			return nil, err
		}
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	fingerprint := hdr.Fingerprint()
	if len(hdr.Shards) != k {
		return nil, fmt.Errorf("distribute: plan has %d shards, merge was handed %d manifests (%w)", len(hdr.Shards), k, fsimage.ErrInvalidSpec)
	}
	for s, mf := range manifests {
		if err := checkManifest(mf, fingerprint, hdr.Shards[s]); err != nil {
			return nil, err
		}
		if mf.ContentHashed != contentHashed {
			return nil, fmt.Errorf("distribute: manifests mix content-hashed and hashless shards (%w)", fsimage.ErrManifestIntegrity)
		}
	}

	var builder *fsimage.DigestBuilder
	var curSHA string
	if contentHashed {
		builder = fsimage.NewDigestBuilder(hdr.Dirs, hdr.Files, hdr.Bytes, func(fsimage.File) (string, error) {
			return curSHA, nil
		})
		if err := (&fsimage.Image{Tree: tree}).StreamRecords(builder); err != nil {
			return nil, fmt.Errorf("distribute: folding directory digest: %w", err)
		}
	}

	// K-way merge by ascending file ID. heads[s] holds shard s's next file.
	heads := make([]fsimage.File, k)
	has := make([]bool, k)
	next := func(s int) {
		f, ok := <-streams[s].files
		heads[s], has[s] = f, ok
	}
	for s := 0; s < k; s++ {
		next(s)
	}
	cursors := make([]int, k)
	for {
		best := -1
		for s := 0; s < k; s++ {
			if has[s] && (best < 0 || heads[s].ID < heads[best].ID) {
				best = s
			}
		}
		if best < 0 {
			break
		}
		f := heads[best]
		mf := manifests[best]
		if err := mf.checkEntry(cursors[best], &f); err != nil {
			return nil, err
		}
		if contentHashed {
			curSHA = mf.FileDigests[cursors[best]].SHA256
			if err := builder.AddFile(f); err != nil {
				return nil, fmt.Errorf("distribute: folding file digest: %w", err)
			}
		}
		cursors[best]++
		next(best)
	}

	// All channels drained, so every decoder finished: collect results and
	// run the cross-fragment checks.
	sum0 := dirsum(tree)
	for s := 0; s < k; s++ {
		if err := <-streams[s].done; err != nil {
			return nil, err
		}
		view := streams[s].view
		if got := view.Plan.Fingerprint(); got != fingerprint {
			return nil, fmt.Errorf("distribute: fragment %d binds plan %.12s, fragment 0 binds %.12s (%w)", s, got, fingerprint, fsimage.ErrManifestIntegrity)
		}
		if s > 0 {
			if got := dirsum(view.Tree); got != sum0 {
				return nil, fmt.Errorf("distribute: fragment %d carries a different directory tree than fragment 0 (%w)", s, fsimage.ErrManifestIntegrity)
			}
		}
	}

	// Every fragment's decoder has held its stream to its row of the shard
	// table, and the rows sum to the header's totals.
	res := &FragmentMergeResult{Fingerprint: fingerprint, Dirs: hdr.Dirs, Files: hdr.Files, Bytes: hdr.Bytes}
	if contentHashed {
		digest, err := builder.Sum()
		if err != nil {
			return nil, fmt.Errorf("distribute: %w (%w)", err, fsimage.ErrManifestIntegrity)
		}
		res.Digest = digest
	}
	return res, nil
}
