package distribute

import (
	"fmt"
	"io"

	"impressions/internal/fsimage"
	"impressions/internal/namespace"
)

// ShardView is everything one worker needs to execute a single shard: the
// sealed plan header, the compact directory tree, the rebuilt partition,
// and just that shard's file records. The pruned decode (DecodePlanShard)
// produces one while holding O(dirs + shard files + chunk) memory — a
// worker's footprint is bounded by its shard, not by the image.
type ShardView struct {
	Plan  *Plan
	Tree  *namespace.Tree
	Part  *namespace.Partition
	Shard int
	// Dirs lists the shard's directory IDs in ascending order.
	Dirs []int
	// Files lists the shard's file records in ascending ID order — the only
	// file records a pruned decode retains.
	Files []fsimage.File
	// StreamedFileRecords counts every file record the plan stream carried
	// (all shards); the pruned decode walks them all for integrity and
	// accounting but retains only len(Files).
	StreamedFileRecords int
}

// recordCheck is the one validator of a record stream against a plan
// header, behind DecodePlanShard, DecodeShardView, FragmentSource's
// decoders, Merge, ManifestCheck and StitchPlanTar. Its RecordSink is ts, a
// TreeSink: that rebuilds the compact tree and holds every record to the
// canonical-stream rules, and hands each file to addFile, which rebuilds the
// partition once the directories are in, tallies every shard, and keeps what
// the policy says:
//
//   - whole-plan stream, one shard kept (DecodePlanShard): the records of
//     shard are retained, the rest only counted;
//   - shard document (fragment = true): every file must belong to shard,
//     IDs ascend but skip; records are retained, or handed to onFile;
//   - whole-plan stream with onFile (Merge, ManifestCheck, StitchPlanTar):
//     every file goes to onFile with its shard, and nothing is retained.
//     The tree onTree is handed is the one its consumers write and fold
//     over: they hold none of their own.
//
// finish compares the tallies with the shard table's expectations.
type recordCheck struct {
	hdr      *Plan
	shard    int
	fragment bool
	ts       *fsimage.TreeSink
	part     *namespace.Partition
	acc      *namespace.ShardAccumulator
	files    []fsimage.File
	// onFile, when non-nil, takes the validated file records the policy
	// hands on, with their shard, instead of files, so a consumer processes
	// an arbitrarily large stream with O(dirs) state here.
	onFile func(f fsimage.File, shard int) error
	// onTree, when non-nil, fires once, when the directory stream is
	// complete and the partition verified — before the first file record is
	// delivered — with the plan header and the tree.
	onTree func(hdr *Plan, tree *namespace.Tree) error
}

func newRecordCheck(hdr *Plan, shard int, fragment bool) *recordCheck {
	c := &recordCheck{hdr: hdr, shard: shard, fragment: fragment}
	c.ts = fsimage.NewTreeSink(c.addFile)
	c.ts.Sparse = fragment
	return c
}

// ensurePartition rebuilds the partition once the directory stream is
// complete (at the first file record, or at end-of-stream for a stream
// without files).
func (c *recordCheck) ensurePartition() error {
	if c.part != nil {
		return nil
	}
	if got := c.ts.DirCount(); got != c.hdr.Dirs {
		return fmt.Errorf("distribute: the stream carried %d directories, the plan header promises %d (%w)", got, c.hdr.Dirs, fsimage.ErrManifestIntegrity)
	}
	part, err := namespace.PartitionFromRoots(c.ts.Tree(), c.hdr.shardRoots())
	if err != nil {
		return fmt.Errorf("distribute: rebuilding partition: %v (%w)", err, fsimage.ErrManifestIntegrity)
	}
	c.part, c.acc = part, namespace.NewShardAccumulator(part)
	if c.onTree != nil {
		return c.onTree(c.hdr, c.ts.Tree())
	}
	return nil
}

// addFile takes the next file record the TreeSink validated.
func (c *recordCheck) addFile(f fsimage.File) error {
	if err := c.ensurePartition(); err != nil {
		return err
	}
	if f.ID >= c.hdr.Files {
		return fmt.Errorf("distribute: file %d outside the plan's %d files (%w)", f.ID, c.hdr.Files, fsimage.ErrManifestIntegrity)
	}
	c.acc.Add(f.DirID, f.Size)
	switch s := c.part.ShardOf(f.DirID); {
	case c.fragment && s != c.shard:
		return fmt.Errorf("distribute: file %d belongs to shard %d, document claims shard %d (%w)", f.ID, s, c.shard, fsimage.ErrManifestIntegrity)
	case c.onFile != nil:
		return c.onFile(f, s)
	case s == c.shard:
		// The header is untrusted until the stream verifies, so room grows as
		// records do — fourfold, up to the count the shard table promises: a
		// count the document merely claims allocates nothing.
		if n, want := len(c.files), c.hdr.Shards[s].Files; n == cap(c.files) && n < want {
			c.files = append(make([]fsimage.File, 0, min(max(4*n, 1024), want)), c.files...)
		}
		c.files = append(c.files, f)
	}
	return nil
}

// finish compares what the stream carried with what the shard table
// expects: every shard's directories, and the files and bytes of every
// shard the stream covers.
func (c *recordCheck) finish() error {
	if err := c.ensurePartition(); err != nil {
		return err
	}
	for i, s := range c.hdr.Shards {
		if len(c.part.Shards[i]) != s.Dirs || (!c.fragment || i == c.shard) && (c.acc.Files(i) != s.Files || c.acc.Bytes(i) != s.Bytes) {
			return fmt.Errorf("distribute: shard %d expectations (%d dirs, %d files, %d bytes) do not match the stream (%d, %d, %d) (%w)",
				i, s.Dirs, s.Files, s.Bytes, len(c.part.Shards[i]), c.acc.Files(i), c.acc.Bytes(i), fsimage.ErrManifestIntegrity)
		}
	}
	return nil
}

// decodeShard reads a document of either kind into the view of one shard:
// the requested one of a plan document, the embedded one of a shard
// document. onFile and onTree are recordCheck's hooks.
func decodeShard(r io.Reader, kind docKind, requested int, onFile func(fsimage.File, int) error, onTree func(*Plan, *namespace.Tree) error) (*ShardView, error) {
	var c *recordCheck
	if _, err := readDocument(r, kind, func(hdr *Plan, embedded int) (fsimage.RecordSink, error) {
		shard := embedded
		if kind == planDoc {
			shard = requested
		}
		if err := hdr.checkShard(shard); err != nil {
			return nil, err
		}
		c = newRecordCheck(hdr, shard, kind == shardDoc)
		c.onFile, c.onTree = onFile, onTree
		return c.ts, nil
	}); err != nil {
		return nil, err
	}
	// readDocument seals the trailer fields on the header it handed over, so
	// c.hdr is the finished plan.
	if err := c.finish(); err != nil {
		return nil, err
	}
	return &ShardView{
		Plan:                c.hdr,
		Tree:                c.ts.Tree(),
		Part:                c.part,
		Shard:               c.shard,
		Dirs:                c.part.Shards[c.shard],
		Files:               c.files,
		StreamedFileRecords: c.ts.FileCount(),
	}, nil
}

// DecodePlanShard reads a plan document and retains only what executing the
// given shard needs: the directory tree, the partition, and that shard's
// file records. Every chunk is still integrity-verified against the trailer
// chain and every shard's expectations are still checked — the pruning
// drops memory, not validation.
func DecodePlanShard(r io.Reader, shard int) (*ShardView, error) {
	return decodeShard(r, planDoc, shard, nil, nil)
}

// LoadPlanShard reads a plan file through the shard-pruning decoder — the
// entry point a distributed worker process uses, so its memory is bounded
// by its shard (plus the compact tree), never by the image.
func LoadPlanShard(path string, shard int) (*ShardView, error) {
	return loadFile(path, func(r io.Reader) (*ShardView, error) { return DecodePlanShard(r, shard) })
}
