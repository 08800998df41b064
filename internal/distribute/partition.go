package distribute

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"slices"

	"impressions/internal/fsimage"
	"impressions/internal/namespace"
)

// Partitioned planning: every plan is built as K independent fragments.
//
// A plan fragment is a shard document (DecodeShardView, Execute, the serve
// layer's shard endpoint). PartitionPlan resolves the metadata pass once and
// routes one record replay through K incremental shard-document encoders;
// each fragment's trailer then seals the plan with the chain hashes of all
// K, so each fragment fingerprints to the plan. Nothing retains the image:
// live state is the compact tree, K piece buffers and the sealer's ring of
// pieces, and with the spill knob set (Config.SpillDir) even the metadata
// columns live on disk, so a 10⁸-file plan builds in O(dirs) heap.
//
// FragmentSource replays the K fragment documents as the whole plan's record
// stream, so Merge verifies a run, and the stitcher rebuilds its archive: a
// K-way merge of the fragments' file streams behind fragment 0's
// directories, holding O(K × chunk) buffers and no tree. The record check
// its consumer runs is the one that holds the stream to the plan; the
// replay holds the other fragments to fragment 0's plan, directory chain and
// chains. A fragment index names the fragments and the plan they make up;
// OpenPlanFile opens one at its path.

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

// check holds a sealed plan header to the plan the index names: the same
// shard count, totals and fingerprint.
func (ix *FragmentIndex) check(hdr *Plan) error {
	if len(hdr.Shards) != ix.Shards || hdr.Files != ix.Files || hdr.Dirs != ix.Dirs || hdr.Bytes != ix.Bytes {
		return fmt.Errorf("distribute: the fragment index names a plan of %d shards, %d files, %d dirs, %d bytes; its fragments carry one of %d, %d, %d, %d (%w)",
			ix.Shards, ix.Files, ix.Dirs, ix.Bytes, len(hdr.Shards), hdr.Files, hdr.Dirs, hdr.Bytes, fsimage.ErrManifestIntegrity)
	}
	if fp := hdr.Fingerprint(); fp != ix.Fingerprint {
		return fmt.Errorf("distribute: the fragment index names plan %.12s, its fragments seal plan %.12s (%w)", ix.Fingerprint, fp, fsimage.ErrManifestIntegrity)
	}
	return nil
}

// Source replays the plan the index names from its fragments, which open
// returns readers for: FragmentSource over the index's shard count, with the
// header the replay sealed held to the index once it returns, or
// ErrManifestIntegrity.
func (ix *FragmentIndex) Source(ctx context.Context, open func(shard int) (io.ReadCloser, error)) PlanSource {
	src := FragmentSource(ctx, ix.Shards, open)
	return func(openSink func(*Plan) (PlanSink, error)) error {
		var hdr *Plan
		if err := src(func(h *Plan) (PlanSink, error) {
			hdr = h
			return openSink(h)
		}); err != nil {
			return err
		}
		return ix.check(hdr)
	}
}

// FragmentName returns the conventional fragment basename for a shard,
// derived from the index (plan) path's basename.
func FragmentName(planBase string, shard int) string {
	return fmt.Sprintf("%s.frag%d", planBase, shard)
}

// fragmentRouter is the RecordSink that fans one metadata replay out to the
// fragment encoders. Each file record goes to its shard's encoder only. The
// directory section is the same bytes in every fragment, so it is one more
// encoder on the build's sealer, whose pieces are written to every fragment;
// at the first file record the router closes it and has the fragment
// encoders resume behind its chunk hashes: directory records are hashed once
// and rendered once, whatever K is, and no rendered piece outlives its
// writes. The encoders share the build's sealer, so the pieces in flight
// are bounded by its ring, not by K.
type fragmentRouter struct {
	cancelPoll
	part   *namespace.Partition
	docs   []*docWriter
	dirs   *fsimage.ChunkEncoder // the directory section; nil once the files began
	hashes []string              // its chunk hashes
}

// cancelPoll checks a record stream's context every 4096 records.
type cancelPoll struct {
	ctx context.Context
	n   int
}

func (p *cancelPoll) poll() error {
	const cancelCheckStride = 4096
	if p.n%cancelCheckStride == 0 {
		if err := p.ctx.Err(); err != nil {
			return err
		}
	}
	p.n++
	return nil
}

func (r *fragmentRouter) AddDir(d fsimage.DirRecord) error {
	if err := r.poll(); err != nil {
		return err
	}
	if r.dirs == nil {
		return fmt.Errorf("distribute: directory record %d after the file stream began", d.ID)
	}
	return r.dirs.AddDir(d)
}

// emitDirs writes a piece of a directory chunk to every fragment and keeps
// the chunk's hash once it is sealed.
func (r *fragmentRouter) emitDirs(p *fsimage.ChunkPiece) error {
	if p.SHA256 != "" {
		r.hashes = append(r.hashes, p.SHA256)
	}
	for _, d := range r.docs {
		if err := d.emit(p); err != nil {
			return err
		}
	}
	return nil
}

// beginFiles closes the directory section and resumes every encoder behind
// it.
func (r *fragmentRouter) beginFiles() error {
	if err := r.dirs.Close(); err != nil {
		return err
	}
	r.dirs = nil
	for _, d := range r.docs {
		d.enc.Resume(r.hashes)
	}
	return nil
}

func (r *fragmentRouter) AddFile(f fsimage.File) error {
	if err := r.poll(); err != nil {
		return err
	}
	if r.dirs != nil {
		if err := r.beginFiles(); err != nil {
			return err
		}
	}
	return r.docs[r.part.ShardOf(f.DirID)].AddFile(f)
}

// writeFragments replays the metadata once through a router over one shard
// document per writer (writers[s] receives fragment s), seals the plan with
// their chains and writes every trailer.
func (rp *ResolvedPlan) writeFragments(ctx context.Context, sealer *fsimage.ChunkSealer, writers []io.WriteCloser) error {
	router := &fragmentRouter{cancelPoll: cancelPoll{ctx: ctx}, part: rp.part, docs: make([]*docWriter, len(writers))}
	router.dirs = sealer.Encoder(rp.Plan.ChunkSize, router.emitDirs)
	for s, w := range writers {
		var err error
		if router.docs[s], err = newDocWriter(w, rp.Plan, s, sealer); err != nil {
			return err
		}
	}
	if err := rp.Meta.StreamRecords(router); err != nil {
		return fmt.Errorf("distribute: routing records to fragments: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if router.dirs != nil { // an image without files
		if err := router.beginFiles(); err != nil {
			return err
		}
	}
	// Every fragment's trailing chunk is cut before any is waited for, so
	// the K of them seal side by side.
	for s, d := range router.docs {
		if err := d.enc.Flush(); err != nil {
			return fmt.Errorf("distribute: sealing fragment %d: %w", s, err)
		}
	}
	chains := make([]string, len(router.docs))
	for s, d := range router.docs {
		if err := d.enc.Close(); err != nil {
			return fmt.Errorf("distribute: sealing fragment %d: %w", s, err)
		}
		chains[s] = d.enc.ChainHash()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for s, d := range router.docs {
		if err := d.Close(chains); err != nil {
			return fmt.Errorf("distribute: sealing fragment %d: %w", s, err)
		}
	}
	rp.Plan.Chains = chains
	return nil
}

// WriteFragments writes the plan as one self-contained shard document per
// shard, fragment s to the writer open returns for it, in one replay of the
// columns, and seals the plan header with the fragments' chains. The sealed
// header's Fingerprint is what each fragment reproduces and what an index
// records. Every writer open returned is closed.
func (rp *ResolvedPlan) WriteFragments(ctx context.Context, open func(shard int) (io.WriteCloser, error)) error {
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
	sealer := fsimage.NewChunkSealer(rp.parallelism)
	err := rp.writeFragments(ctx, sealer, wcs)
	// The sealer's goroutines write fragments too: they stop before any
	// writer is closed.
	sealer.Close()
	if err != nil {
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
// header; no image is retained. Live memory is the compact tree, one piece
// buffer per fragment and the sealer's ring; combined with Config.SpillDir
// the whole build runs in O(dirs) heap.
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

// fragmentStream is one fragment's decoding goroutine as the replay sees
// it, and the RecordSink the goroutine decodes the fragment into. Only
// fragment 0's directory records reach the replay; the other fragments'
// are dropped, their directory chain vouching for them.
type fragmentStream struct {
	head    chan *Plan             // the header as the document opened, before any seal; closed without one if the decoder failed first
	dirs    chan fsimage.DirRecord // fragment 0's directory records, closed as its files begin; nil for the others
	files   chan fsimage.File
	done    chan error      // the verdict, sent before files is closed
	abort   <-chan struct{} // closed once the replay returns
	inFiles bool            // dirs is closed
	// Set before done reports: the chain of the fragment's directory
	// section and the chains it seals the plan with.
	dirChain string
	chains   []string
}

// decode reads fragment s, which must embed shard s, into the stream.
func (fs *fragmentStream) decode(open func(shard int) (io.ReadCloser, error), s int) error {
	defer close(fs.head)
	defer fs.endDirs()
	rc, err := open(s)
	if err != nil {
		return fmt.Errorf("distribute: opening fragment %d: %w", s, err)
	}
	defer rc.Close()
	var sealed *Plan
	fs.dirChain, err = readDocument(rc, func(hdr *Plan, shard int) (fsimage.RecordSink, error) {
		if err := hdr.checkShard(shard); err != nil {
			return nil, err
		}
		if shard != s {
			return nil, fmt.Errorf("distribute: fragment %d embeds shard %d (%w)", s, shard, fsimage.ErrManifestIntegrity)
		}
		sealed = hdr
		unsealed := *hdr
		fs.head <- &unsealed
		return fs, nil
	})
	if err != nil {
		return err
	}
	fs.chains = sealed.Chains
	return nil
}

func (fs *fragmentStream) AddDir(d fsimage.DirRecord) error {
	if fs.dirs == nil {
		return nil
	}
	return send(fs.dirs, d, fs.abort)
}

func (fs *fragmentStream) AddFile(f fsimage.File) error {
	fs.endDirs()
	return send(fs.files, f, fs.abort)
}

func (fs *fragmentStream) endDirs() {
	if fs.dirs != nil && !fs.inFiles {
		close(fs.dirs)
		fs.inFiles = true
	}
}

// send hands v to ch, unless the replay returns first.
func send[T any](ch chan<- T, v T, abort <-chan struct{}) error {
	select {
	case ch <- v:
		return nil
	case <-abort:
		return fmt.Errorf("distribute: fragment replay aborted")
	}
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
// returns readers for, as the whole plan's record stream: a k-way merge that
// checks no record itself, the sink's record check (checkPlan) holding the
// stream to the header. One goroutine decodes each fragment and checks what
// only the documents show: fragment s embeds shard s, every chunk's hash,
// and its own chain against its trailer's entry. Every fragment must bind
// fragment 0's plan; the sink then takes fragment 0's header and directory
// records, and the k file streams merged by ascending file ID (shards
// partition the ID space; each stream ascends), each file with the shard of
// the fragment that carried it. The other fragments' directory records are
// dropped: once every fragment is decoded, each one's directory section
// must chain to fragment 0's, and each must seal the plan with fragment 0's
// chains, which then seal the header the sink was handed. The replay polls
// ctx every 4096 records. Memory is O(k·chunk + k²) beside the sink: a
// chunk in decoding per fragment, and every fragment's chain list.
func FragmentSource(ctx context.Context, k int, open func(shard int) (io.ReadCloser, error)) PlanSource {
	return func(openSink func(*Plan) (PlanSink, error)) error {
		if k < 1 {
			return fmt.Errorf("distribute: no fragments to replay (%w)", fsimage.ErrInvalidSpec)
		}
		abort := make(chan struct{})
		defer close(abort)
		// A stream buffers 256 records, so each decoder works ahead of the
		// merge while it waits on another fragment.
		streams := make([]*fragmentStream, k)
		for s := range streams {
			fs := &fragmentStream{head: make(chan *Plan, 1), files: make(chan fsimage.File, 256), done: make(chan error, 1), abort: abort}
			if s == 0 {
				fs.dirs = make(chan fsimage.DirRecord, 256)
			}
			streams[s] = fs
			go func() {
				defer close(fs.files)
				fs.done <- fs.decode(open, s)
			}()
		}

		// Every fragment must bind fragment 0's plan. The fingerprints are
		// taken before any seal: the chains are the trailers' to compare.
		var (
			hdr *Plan
			fp  string
		)
		for s, fs := range streams {
			var h *Plan // nil once head is closed without one
			select {
			case h = <-fs.head:
			case <-ctx.Done():
				return ctx.Err()
			}
			switch {
			case h == nil:
				return <-fs.done
			case s == 0 && len(h.Shards) != k:
				return fmt.Errorf("distribute: the plan has %d shards, the replay was handed %d fragments (%w)", len(h.Shards), k, fsimage.ErrManifestIntegrity)
			case s == 0:
				hdr, fp = h, h.Fingerprint()
			case h.Fingerprint() != fp:
				return fmt.Errorf("distribute: fragment %d binds plan %.12s, fragment 0 binds %.12s (%w)", s, h.Fingerprint(), fp, fsimage.ErrManifestIntegrity)
			}
		}
		sink, err := openSink(hdr)
		if err != nil {
			return err
		}
		cancel := cancelPoll{ctx: ctx}
		for d := range streams[0].dirs {
			if err := cancel.poll(); err != nil {
				return err
			}
			if err := sink.AddDir(d); err != nil {
				return err
			}
		}

		// The k-way merge by ascending file ID. heads[s] holds shard s's next
		// file.
		heads := make([]fsimage.File, k)
		has := make([]bool, k)
		next := func(s int) {
			f, ok := <-streams[s].files
			heads[s], has[s] = f, ok
		}
		for s := range k {
			next(s)
		}
		for {
			best := -1
			for s := range k {
				if has[s] && (best < 0 || heads[s].ID < heads[best].ID) {
					best = s
				}
			}
			if best < 0 {
				break
			}
			if err := cancel.poll(); err != nil {
				return err
			}
			if err := sink.AddFile(heads[best], best); err != nil {
				return fragmentFault(streams, has, err)
			}
			next(best)
		}

		// All channels drained, so every decoder finished and holds its
		// verdict.
		for _, fs := range streams {
			if err := <-fs.done; err != nil {
				return err
			}
		}
		for s := 1; s < k; s++ {
			if streams[s].dirChain != streams[0].dirChain {
				return fmt.Errorf("distribute: fragment %d carries other directories than fragment 0 (%w)", s, fsimage.ErrManifestIntegrity)
			}
			if !slices.Equal(streams[s].chains, streams[0].chains) {
				return fmt.Errorf("distribute: fragment %d seals its plan with other chains than fragment 0 (%w)", s, fsimage.ErrManifestIntegrity)
			}
		}
		hdr.Chains = streams[0].chains
		return nil
	}
}
