package distribute

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strconv"

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
// FragmentSource replays the K fragment documents as the whole plan's record
// stream, so Merge verifies a partitioned run, and the stitcher rebuilds its
// archive, holding the tree and O(K × chunk) buffers. OpenPlanFile takes the
// index's path where a plan document's is taken.

// FragmentIndexVersion is the fragment-index wire version.
const FragmentIndexVersion = 1

// FragmentIndex describes a partitioned plan: the parent plan's identity
// plus the names of its fragment documents. It is what `plan -partition`
// writes at the plan path (fragments land next to it), and OpenPlanFile
// opens it there like a plan document.
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

// check holds a plan header to the plan the index names: the same
// fingerprint, shard count and totals.
func (ix *FragmentIndex) check(hdr *Plan) error {
	if fp := hdr.Fingerprint(); fp != ix.Fingerprint || len(hdr.Shards) != ix.Shards || hdr.Files != ix.Files || hdr.Dirs != ix.Dirs || hdr.Bytes != ix.Bytes {
		return fmt.Errorf("distribute: the fragment index names plan %.12s of %d shards, %d files, %d dirs, %d bytes; its fragments carry plan %.12s of %d, %d, %d, %d (%w)",
			ix.Fingerprint, ix.Shards, ix.Files, ix.Dirs, ix.Bytes, fp, len(hdr.Shards), hdr.Files, hdr.Dirs, hdr.Bytes, fsimage.ErrManifestIntegrity)
	}
	return nil
}

// FragmentName returns the conventional fragment basename for a shard,
// derived from the index (plan) path's basename.
func FragmentName(planBase string, shard int) string {
	return fmt.Sprintf("%s.frag%d", planBase, shard)
}

// sealDirs hashes the plan's monolithic chunk chain without writing it and
// seals the plan with it: the fragment headers must carry the exact
// Chunks/ImageSHA256 the monolithic plan file would, or the fingerprint
// manifests bind to would diverge between partitioned and single-document
// planning. It returns the record hashes of the chain's directory chunks.
// Every fragment opens with the same directory records at the same chunk
// size and index, so these are its first chunk hashes too.
func (rp *ResolvedPlan) sealDirs(ctx context.Context, sealer *fsimage.ChunkSealer) ([]string, error) {
	var dirHashes []string
	enc := sealer.Encoder(rp.Plan.ChunkSize, false, func(c *fsimage.Chunk, _ []byte) error {
		if len(c.Dirs) > 0 {
			dirHashes = append(dirHashes, c.SHA256)
		}
		return nil
	})
	if err := rp.Meta.StreamRecords(enc); err != nil {
		return nil, fmt.Errorf("distribute: hashing metadata chunks: %w", err)
	}
	if err := enc.Close(); err != nil {
		return nil, fmt.Errorf("distribute: hashing metadata chunks: %w", err)
	}
	rp.Plan.Chunks = enc.Chunks()
	rp.Plan.ImageSHA256 = enc.ChainHash()
	return dirHashes, ctx.Err()
}

// fragmentRouter is the RecordSink that fans one metadata replay out to the
// fragment encoders. Each file record goes to its shard's encoder only. The
// directory section is the same bytes in every fragment, so the router
// renders each directory chunk once, sealed with the hash sealDirs kept,
// writes it to every fragment, and has the encoders resume behind it at the
// first file chunk: directory records are hashed once and rendered once,
// whatever K is, and no rendered chunk outlives its writes. The K encoders
// share the build's sealer, so the file chunks in flight are bounded by its
// goroutines, not by K.
type fragmentRouter struct {
	ctx       context.Context
	rp        *ResolvedPlan
	dirHashes []string
	docs      []*docWriter
	n         int

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
	if len(r.dirs.Dirs) >= r.rp.Plan.ChunkSize {
		return r.flushDirs()
	}
	return nil
}

// flushDirs writes the buffered directory chunk to every fragment. Its hash
// is there: sealDirs' pass cut the same tree at the same chunk size.
func (r *fragmentRouter) flushDirs() error {
	if len(r.dirs.Dirs) == 0 {
		return nil
	}
	r.dirs.SHA256 = r.dirHashes[r.dirs.Index]
	var err error
	if r.buf, err = r.dirs.AppendJSON(r.buf[:0]); err != nil {
		return fmt.Errorf("distribute: encoding chunk %d: %w", r.dirs.Index, err)
	}
	for _, d := range r.docs {
		if err := d.emit(&r.dirs, r.buf); err != nil {
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
	if r.dirs.Index != len(r.dirHashes) {
		return fmt.Errorf("distribute: the replay carried %d directory chunks, the plan was sealed over %d (%w)", r.dirs.Index, len(r.dirHashes), fsimage.ErrManifestIntegrity)
	}
	for _, d := range r.docs {
		d.resumeAfter(r.dirHashes)
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
	return r.docs[r.rp.part.ShardOf(f.DirID)].AddFile(f)
}

// writeFragments replays the metadata once through a router over one shard
// document per writer (writers[s] receives fragment s) and seals them.
func (rp *ResolvedPlan) writeFragments(ctx context.Context, sealer *fsimage.ChunkSealer, dirHashes []string, writers []io.WriteCloser) error {
	router := &fragmentRouter{ctx: ctx, rp: rp, dirHashes: dirHashes, docs: make([]*docWriter, len(writers))}
	for s, w := range writers {
		var err error
		if router.docs[s], err = newDocWriter(w, shardDoc, shardHeader(rp.Plan, s), sealer, rp.Plan.ChunkSize); err != nil {
			return err
		}
	}
	if err := rp.Meta.StreamRecords(router); err != nil {
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
	rp, err := req.Resolve(ctx)
	if err != nil {
		return nil, err
	}
	defer rp.Close()
	// One sealer for both passes: the one that seals the header and the
	// one that writes the fragments.
	sealer := fsimage.NewChunkSealer(rp.parallelism)
	defer sealer.Close()
	dirHashes, err := rp.sealDirs(ctx, sealer)
	if err != nil {
		return nil, err
	}

	wcs := make([]io.WriteCloser, len(rp.Plan.Shards))
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
	if err := rp.writeFragments(ctx, sealer, dirHashes, wcs); err != nil {
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
	return rp.Plan, nil
}

// dirsum folds a decoded fragment's directory table into a hash so sibling
// fragments' trees can be cross-checked cheaply. Each directory is the line
// "%d %d %q %v %g\n" (ID, Parent, Name, Special, Bias), rendered with the
// strconv appenders fmt's verbs call into one buffer hashed every 32 KiB.
func dirsum(tree *namespace.Tree) string {
	const flushBytes = 32 << 10
	h := sha256.New()
	buf := make([]byte, 0, flushBytes+512)
	for i := range tree.Dirs {
		d := &tree.Dirs[i]
		buf = strconv.AppendInt(buf, int64(d.ID), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(d.Parent), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendQuote(buf, d.Name)
		buf = append(buf, ' ')
		buf = strconv.AppendBool(buf, d.Special)
		buf = append(buf, ' ')
		buf = strconv.AppendFloat(buf, d.Bias, 'g', -1, 64)
		buf = append(buf, '\n')
		if len(buf) >= flushBytes {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// fragmentStream is one decoding goroutine's channel bundle.
type fragmentStream struct {
	files chan fsimage.File
	done  chan error
	view  *ShardView
}

// FragmentSource replays a partitioned plan from its k fragment documents,
// which open returns readers for, as the whole plan's record stream. One
// goroutine decodes each fragment and holds it to its own row of the shard
// table. Fragment 0's header and directory tree open the stream the moment
// its directories are in, and the k file streams follow merged by ascending
// file ID (shards partition the ID space; each stream ascends). Every
// fragment must bind fragment 0's plan and carry its tree. Memory is
// O(dirs + k·chunk).
func FragmentSource(ctx context.Context, k int, open func(shard int) (io.ReadCloser, error)) PlanSource {
	return func(openSink func(*Plan) (fsimage.RecordSink, error)) error {
		if k < 1 {
			return fmt.Errorf("distribute: no fragments to replay (%w)", fsimage.ErrInvalidSpec)
		}
		// Fragment 0 hands over the plan header and tree the moment its
		// directory stream completes, so the replay starts while files still
		// stream.
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
				view, err := decodeShard(rc, shardDoc, 0, func(f fsimage.File, _ int) error {
					select {
					case fs.files <- f:
						return nil
					case <-abort:
						if err := ctx.Err(); err != nil {
							return err
						}
						return fmt.Errorf("distribute: fragment replay aborted")
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
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
		if len(hdr.Shards) != k {
			return fmt.Errorf("distribute: the plan has %d shards, the replay was handed %d fragments (%w)", len(hdr.Shards), k, fsimage.ErrManifestIntegrity)
		}
		sink, err := openSink(hdr)
		if err != nil {
			return err
		}
		if err := (&fsimage.Image{Tree: tree}).StreamRecords(sink); err != nil {
			return err
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
			if err := sink.AddFile(heads[best]); err != nil {
				return err
			}
			next(best)
		}

		// All channels drained, so every decoder finished: collect results and
		// run the cross-fragment checks.
		fingerprint, sum0 := hdr.Fingerprint(), dirsum(tree)
		for s := 0; s < k; s++ {
			if err := <-streams[s].done; err != nil {
				return err
			}
			view := streams[s].view
			if got := view.Plan.Fingerprint(); got != fingerprint {
				return fmt.Errorf("distribute: fragment %d binds plan %.12s, fragment 0 binds %.12s (%w)", s, got, fingerprint, fsimage.ErrManifestIntegrity)
			}
			if s > 0 {
				if got := dirsum(view.Tree); got != sum0 {
					return fmt.Errorf("distribute: fragment %d carries a different directory tree than fragment 0 (%w)", s, fsimage.ErrManifestIntegrity)
				}
			}
		}
		return nil
	}
}
