package distribute

import (
	"fmt"
	"io"

	"impressions/internal/fsimage"
	"impressions/internal/namespace"
)

// ShardView is everything one worker needs to execute a single shard: the
// sealed plan header, the compact directory tree, the rebuilt partition,
// and just that shard's file records — what its shard document (a plan
// fragment) carries. DecodeShardView produces one while holding O(dirs +
// shard files + chunk) memory: a worker's footprint is bounded by its shard,
// not by the image.
type ShardView struct {
	Plan  *Plan
	Tree  *namespace.Tree
	Part  *namespace.Partition
	Shard int
	// Dirs lists the shard's directory IDs in ascending order.
	Dirs []int
	// Files lists the shard's file records in ascending ID order.
	Files []fsimage.File
}

// recordCheck is the one validator of a record stream against a plan
// header, behind DecodeShardView and, through checkPlan, behind every
// consumer of a PlanSource: Merge, ManifestCheck, StitchPlanTar and
// WritePlanTar. Its TreeSink ts rebuilds the compact tree and holds every
// record to the canonical-stream rules, and hands each file to addFile,
// which rebuilds the partition once the directories are in, holds the file
// to the shard whose stream carried it, tallies every shard, and keeps what
// the policy says:
//
//   - shard document (shard >= 0): readDocument feeds ts, and every file is
//     carried by shard; IDs ascend but skip; records are retained, or
//     handed to onFile;
//   - whole-plan stream (shard = -1): the check is the source's PlanSink,
//     each file carried by the shard its source names, and every file goes
//     to onFile with that shard; nothing is retained. The tree onTree is
//     handed is the one the consumers write and fold over: they hold none
//     of their own.
//
// finish compares the tallies with the shard table's expectations.
type recordCheck struct {
	hdr   *Plan
	shard int
	ts    *fsimage.TreeSink
	part  *namespace.Partition
	acc   *namespace.ShardAccumulator
	files []fsimage.File
	// carrier is the shard whose stream carries the file in flight: the
	// document's, or the one AddFile was handed.
	carrier int
	// onDir, when non-nil, takes each validated directory record.
	onDir func(fsimage.DirRecord) error
	// onFile, when non-nil, takes the validated file records the policy
	// hands on, with their shard, instead of files, so a consumer processes
	// an arbitrarily large stream with O(dirs) state here.
	onFile func(f fsimage.File, shard int) error
	// onTree, when non-nil, fires once, when the directory stream is
	// complete and the partition verified — before the first file record is
	// delivered — with the tree.
	onTree func(tree *namespace.Tree) error
}

func newRecordCheck(hdr *Plan, shard int) *recordCheck {
	c := &recordCheck{hdr: hdr, shard: shard, carrier: shard}
	c.ts = fsimage.NewTreeSink(c.addFile)
	c.ts.Sparse = shard >= 0
	return c
}

// AddDir makes the check the PlanSink of a whole plan's source.
func (c *recordCheck) AddDir(d fsimage.DirRecord) error {
	if err := c.ts.AddDir(d); err != nil || c.onDir == nil {
		return err
	}
	return c.onDir(d)
}

// AddFile takes the next file record with the shard whose stream carried it.
func (c *recordCheck) AddFile(f fsimage.File, shard int) error {
	c.carrier = shard
	return c.ts.AddFile(f)
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
		return c.onTree(c.ts.Tree())
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
	s := c.part.ShardOf(f.DirID)
	if s != c.carrier {
		return fmt.Errorf("distribute: file %d belongs to shard %d, the stream of shard %d carries it (%w)", f.ID, s, c.carrier, fsimage.ErrManifestIntegrity)
	}
	if c.onFile != nil {
		return c.onFile(f, s)
	}
	// The header is untrusted until the stream verifies, so room grows as
	// records do — fourfold, up to the count the shard table promises: a
	// count the document merely claims allocates nothing.
	if n, want := len(c.files), c.hdr.Shards[s].Files; n == cap(c.files) && n < want {
		c.files = append(make([]fsimage.File, 0, min(max(4*n, 1024), want)), c.files...)
	}
	c.files = append(c.files, f)
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
		if len(c.part.Shards[i]) != s.Dirs || (c.shard < 0 || i == c.shard) && (c.acc.Files(i) != s.Files || c.acc.Bytes(i) != s.Bytes) {
			return fmt.Errorf("distribute: shard %d expectations (%d dirs, %d files, %d bytes) do not match the stream (%d, %d, %d) (%w)",
				i, s.Dirs, s.Files, s.Bytes, len(c.part.Shards[i]), c.acc.Files(i), c.acc.Bytes(i), fsimage.ErrManifestIntegrity)
		}
	}
	return nil
}

// DecodeShardView reads a shard document — a plan fragment, as PartitionPlan
// writes it and the daemon serves it — verifying every record chunk against
// its integrity hash and the document's chain against its entry in the
// sealing trailer, and validating the shard's records against the embedded
// plan header. The header is sealed with the trailer's chains, so its
// fingerprint is the plan's and manifests bind to it.
func DecodeShardView(r io.Reader) (*ShardView, error) {
	var c *recordCheck
	if _, err := readDocument(r, func(hdr *Plan, shard int) (fsimage.RecordSink, error) {
		if err := hdr.checkShard(shard); err != nil {
			return nil, err
		}
		c = newRecordCheck(hdr, shard)
		return c.ts, nil
	}); err != nil {
		return nil, err
	}
	if err := c.finish(); err != nil {
		return nil, err
	}
	return &ShardView{
		Plan:  c.hdr,
		Tree:  c.ts.Tree(),
		Part:  c.part,
		Shard: c.shard,
		Dirs:  c.part.Shards[c.shard],
		Files: c.files,
	}, nil
}
