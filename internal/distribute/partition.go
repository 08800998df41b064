package distribute

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"

	"impressions/internal/fsimage"
	"impressions/internal/namespace"
)

// Partitioned planning: every plan is built as K independent fragments.
//
// A plan fragment is a shard document (DecodeShardView, Execute, the serve
// layer's shard endpoint). PartitionPlan resolves the metadata pass once,
// seals the plan header (chunk count + chain hash over the whole record
// stream, which every fragment's embedded header carries, so each fragment
// fingerprints to the plan) and then routes one record replay through K
// incremental shard-document encoders. Nothing retains the image: live
// state is the compact tree plus K chunk buffers, and with the spill knob set
// (Config.SpillDir) even the metadata columns live on disk, so a 10⁸-file
// plan builds in O(dirs) heap.
//
// FragmentSource replays the K fragment documents as the whole plan's record
// stream, so Merge verifies a run, and the stitcher rebuilds its archive,
// holding fragment 0's tree and O(K × chunk) buffers: the other fragments are
// held to that tree, not to trees of their own. A fragment index names the
// fragments and the plan they make up; OpenPlanFile opens one at its path.

// FragmentIndexVersion is the fragment-index wire version.
const FragmentIndexVersion = 1

// FragmentIndex describes a plan: its identity plus the names of its
// fragment documents. It is what `plan` writes at the plan path (fragments
// land next to it), and what OpenPlanFile opens there.
type FragmentIndex struct {
	FormatVersion int `json:"format_version"`
	// Fingerprint is the plan's Fingerprint(); every fragment's embedded
	// plan header reproduces it bit for bit.
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

// Source replays the plan the index names from its fragments, which open
// returns readers for: FragmentSource, with the header the fragments carry
// held to the index — the same fingerprint, shard count and totals, or
// ErrManifestIntegrity.
func (ix *FragmentIndex) Source(ctx context.Context, open func(shard int) (io.ReadCloser, error)) PlanSource {
	src := FragmentSource(ctx, ix.Shards, open)
	return func(openSink func(*Plan) (fsimage.RecordSink, error)) error {
		return src(func(hdr *Plan) (fsimage.RecordSink, error) {
			if err := ix.check(hdr); err != nil {
				return nil, err
			}
			return openSink(hdr)
		})
	}
}

// FragmentName returns the conventional fragment basename for a shard,
// derived from the index (plan) path's basename.
func FragmentName(planBase string, shard int) string {
	return fmt.Sprintf("%s.frag%d", planBase, shard)
}

// sealDirs hashes the chunk chain of the plan's whole record stream without
// writing it and seals the plan with it: every fragment header carries the
// same Chunks/ImageSHA256, and the fingerprint manifests bind to covers
// them. It returns the record hashes of the chain's directory chunks.
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
		if router.docs[s], err = newDocWriter(w, shardHeader(rp.Plan, s), sealer, rp.Plan.ChunkSize); err != nil {
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

// WriteFragments writes the plan as one self-contained shard document per
// shard, fragment s to the writer open returns for it, and seals the plan
// header: one replay of the columns hashes the chunk chain, a second routes
// the records to the fragments. The sealed header's Fingerprint is what each
// fragment reproduces and what an index records. Every writer open returned
// is closed.
func (rp *ResolvedPlan) WriteFragments(ctx context.Context, open func(shard int) (io.WriteCloser, error)) error {
	// One sealer for both passes: the one that seals the header and the
	// one that writes the fragments.
	sealer := fsimage.NewChunkSealer(rp.parallelism)
	defer sealer.Close()
	dirHashes, err := rp.sealDirs(ctx, sealer)
	if err != nil {
		return err
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
			return fmt.Errorf("distribute: opening fragment %d: %w", s, err)
		}
		wcs[s] = wc
	}
	if err := rp.writeFragments(ctx, sealer, dirHashes, wcs); err != nil {
		closeAll()
		return err
	}
	for s, wc := range wcs {
		wcs[s] = nil
		if err := wc.Close(); err != nil {
			closeAll()
			return fmt.Errorf("distribute: closing fragment %d: %w", s, err)
		}
	}
	return nil
}

// PartitionPlan builds the plan req describes as one fragment per shard, at
// most MaxShards (Resolve, then WriteFragments), and returns the sealed plan
// header; no image is retained. Live memory is the compact tree plus one
// chunk buffer per fragment; combined with Config.SpillDir the whole build
// runs in O(dirs) heap.
func PartitionPlan(ctx context.Context, req PlanRequest, open func(shard int) (io.WriteCloser, error)) (*Plan, error) {
	rp, err := req.Resolve(ctx)
	if err != nil {
		return nil, err
	}
	defer rp.Close()
	if err := rp.WriteFragments(ctx, open); err != nil {
		return nil, err
	}
	return rp.Plan, nil
}

// fragmentBase is what fragment 0 lends the other fragments' checks,
// published the moment its directory section is in: the plan header it binds
// and the tree and partition its record check rebuilt.
type fragmentBase struct {
	ready chan struct{} // closed once the fields below are set, or fragment 0 failed first
	hdr   *Plan
	tree  *namespace.Tree
	part  *namespace.Partition
}

// fragmentCheck holds a fragment after the first to fragment 0 without a
// tree of its own: it must bind fragment 0's plan, its directory records
// must be fragment 0's, field for field, and each of its files must lie in
// its shard of fragment 0's partition. Everything else about the records —
// dense ascending IDs, names, depths, sizes, every shard's tallies — is the
// merged stream's to bear out, in the record check of the whole plan every
// consumer of a PlanSource runs.
type fragmentCheck struct {
	hdr    *Plan
	shard  int
	base   *fragmentBase
	wait   func() error // returns once base is published
	held   bool         // base is published and binds hdr's plan
	dirs   int          // the directory records held to base's
	files  bool         // the file section began
	onFile func(fsimage.File) error
}

// hold waits for fragment 0, once, and holds the plan to its plan.
func (c *fragmentCheck) hold() error {
	if c.held {
		return nil
	}
	c.held = true
	if err := c.wait(); err != nil {
		return err
	}
	if got, want := c.hdr.Fingerprint(), c.base.hdr.Fingerprint(); got != want {
		return fmt.Errorf("distribute: fragment %d binds plan %.12s, fragment 0 binds %.12s (%w)", c.shard, got, want, fsimage.ErrManifestIntegrity)
	}
	return nil
}

func (c *fragmentCheck) AddDir(d fsimage.DirRecord) error {
	if err := c.hold(); err != nil {
		return err
	}
	if t := c.base.tree; c.dirs < t.Len() {
		x := &t.Dirs[c.dirs]
		if d.ID == x.ID && d.Parent == x.Parent && d.Name == x.Name && d.Special == x.Special && math.Float64bits(d.Bias) == math.Float64bits(x.Bias) {
			c.dirs++
			return nil
		}
	}
	return fmt.Errorf("distribute: fragment %d's directory record %d differs from fragment 0's (%w)", c.shard, d.ID, fsimage.ErrManifestIntegrity)
}

// endDirs holds the completed directory section to fragment 0's.
func (c *fragmentCheck) endDirs() error {
	if err := c.hold(); err != nil || c.files {
		return err
	}
	c.files = true
	if c.dirs != c.base.tree.Len() {
		return fmt.Errorf("distribute: fragment %d carries %d directories, fragment 0 %d (%w)", c.shard, c.dirs, c.base.tree.Len(), fsimage.ErrManifestIntegrity)
	}
	return nil
}

func (c *fragmentCheck) AddFile(f fsimage.File) error {
	if err := c.endDirs(); err != nil {
		return err
	}
	if f.DirID < 0 || f.DirID >= c.dirs || c.base.part.ShardOf(f.DirID) != c.shard {
		return fmt.Errorf("distribute: fragment %d carries file %d of directory %d, which is not its shard's (%w)", c.shard, f.ID, f.DirID, fsimage.ErrManifestIntegrity)
	}
	return c.onFile(f)
}

// decodeFragment reads fragment s of a replay, which must embed shard s, and
// hands its file records to send: fragment 0 through a record check, which
// publishes base when its directories are in, every other fragment through a
// fragmentCheck against base.
func decodeFragment(r io.Reader, s int, base *fragmentBase, wait func() error, send func(fsimage.File) error) error {
	var finish func() error
	if err := readDocument(r, func(hdr *Plan, shard int) (fsimage.RecordSink, error) {
		if err := hdr.checkShard(shard); err != nil {
			return nil, err
		}
		if shard != s {
			return nil, fmt.Errorf("distribute: fragment %d embeds shard %d (%w)", s, shard, fsimage.ErrManifestIntegrity)
		}
		if s > 0 {
			c := &fragmentCheck{hdr: hdr, shard: s, base: base, wait: wait, onFile: send}
			finish = c.endDirs
			return c, nil
		}
		c := newRecordCheck(hdr, 0)
		c.onFile = func(f fsimage.File, _ int) error { return send(f) }
		c.onTree = func(hdr *Plan, tree *namespace.Tree) error {
			base.hdr, base.tree, base.part = hdr, tree, c.part
			close(base.ready)
			return nil
		}
		finish = c.finish
		return c.ts, nil
	}); err != nil {
		return err
	}
	return finish()
}

// fragmentStream is one decoding goroutine's channel bundle.
type fragmentStream struct {
	files chan fsimage.File
	done  chan error
}

// fragmentFault is what a replay reports when the merged stream fails the
// sink's check. A fragment whose decoder failed ended its stream early, and
// the gap it left is what the check saw, so that decoder's error, which says
// why, comes first. A decoder reports before it ends its stream, so the
// receives do not block.
func fragmentFault(streams []*fragmentStream, has []bool, err error) error {
	for s, fs := range streams {
		if !has[s] {
			if ferr := <-fs.done; ferr != nil {
				return ferr
			}
		}
	}
	return err
}

// FragmentSource replays a plan from its k fragment documents, which open
// returns readers for, as the whole plan's record stream. One goroutine
// decodes each fragment and holds it to its own row of the shard table.
// Fragment 0's header and directory tree open the stream the moment its
// directories are in, and the k file streams follow merged by ascending
// file ID (shards partition the ID space; each stream ascends). Every other
// fragment must bind fragment 0's plan and carry its directories, which it
// compares with fragment 0's tree as they stream past, and its files are
// placed in fragment 0's partition. Memory is O(dirs + k·chunk): fragment 0's
// tree and partition, beside the one the sink rebuilds, whatever k is.
func FragmentSource(ctx context.Context, k int, open func(shard int) (io.ReadCloser, error)) PlanSource {
	return func(openSink func(*Plan) (fsimage.RecordSink, error)) error {
		if k < 1 {
			return fmt.Errorf("distribute: no fragments to replay (%w)", fsimage.ErrInvalidSpec)
		}
		base := &fragmentBase{ready: make(chan struct{})}
		abort := make(chan struct{})
		defer close(abort)
		aborted := func() error {
			if err := ctx.Err(); err != nil {
				return err
			}
			return fmt.Errorf("distribute: fragment replay aborted")
		}
		wait := func() error {
			select {
			case <-base.ready:
				if base.hdr != nil {
					return nil
				}
			case <-abort:
			}
			return aborted()
		}
		streams := make([]*fragmentStream, k)
		for s := 0; s < k; s++ {
			fs := &fragmentStream{files: make(chan fsimage.File, 256), done: make(chan error, 1)}
			streams[s] = fs
			go func(s int) {
				defer close(fs.files)
				if s == 0 {
					defer func() {
						if base.hdr == nil {
							close(base.ready)
						}
					}()
				}
				rc, err := open(s)
				if err != nil {
					fs.done <- fmt.Errorf("distribute: opening fragment %d: %w", s, err)
					return
				}
				defer rc.Close()
				fs.done <- decodeFragment(rc, s, base, wait, func(f fsimage.File) error {
					select {
					case fs.files <- f:
						return nil
					case <-abort:
						return aborted()
					}
				})
			}(s)
		}

		// Wait for fragment 0's tree, or its failure.
		select {
		case <-base.ready:
		case <-ctx.Done():
			return ctx.Err()
		}
		if base.hdr == nil {
			return <-streams[0].done
		}
		hdr := base.hdr
		if len(hdr.Shards) != k {
			return fmt.Errorf("distribute: the plan has %d shards, the replay was handed %d fragments (%w)", len(hdr.Shards), k, fsimage.ErrManifestIntegrity)
		}
		sink, err := openSink(hdr)
		if err != nil {
			return err
		}
		if err := (&fsimage.Image{Tree: base.tree}).StreamRecords(sink); err != nil {
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
				return fragmentFault(streams, has, err)
			}
			next(best)
		}

		// All channels drained, so every decoder finished and holds its
		// verdict.
		for s := 0; s < k; s++ {
			if err := <-streams[s].done; err != nil {
				return err
			}
		}
		return nil
	}
}
