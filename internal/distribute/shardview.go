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
// header, behind DecodeShardView, FragmentSource's fragment 0, Merge,
// ManifestCheck and StitchPlanTar. Its RecordSink is ts, a TreeSink: that
// rebuilds the compact tree and holds every record to the canonical-stream
// rules, and hands each file to addFile, which rebuilds the partition once
// the directories are in, tallies every shard, and keeps what the policy
// says:
//
//   - shard document (shard >= 0): every file must belong to shard, IDs
//     ascend but skip; records are retained, or handed to onFile;
//   - whole-plan stream (shard = -1: Merge, ManifestCheck, StitchPlanTar):
//     every file goes to onFile with its shard, and nothing is retained.
//     The tree onTree is handed is the one its consumers write and fold
//     over: they hold none of their own.
//
// finish compares the tallies with the shard table's expectations.
type recordCheck struct {
	hdr   *Plan
	shard int
	ts    *fsimage.TreeSink
	part  *namespace.Partition
	acc   *namespace.ShardAccumulator
	files []fsimage.File
	// onFile, when non-nil, takes the validated file records the policy
	// hands on, with their shard, instead of files, so a consumer processes
	// an arbitrarily large stream with O(dirs) state here.
	onFile func(f fsimage.File, shard int) error
	// onTree, when non-nil, fires once, when the directory stream is
	// complete and the partition verified — before the first file record is
	// delivered — with the plan header and the tree.
	onTree func(hdr *Plan, tree *namespace.Tree) error
}

func newRecordCheck(hdr *Plan, shard int) *recordCheck {
	c := &recordCheck{hdr: hdr, shard: shard}
	c.ts = fsimage.NewTreeSink(c.addFile)
	c.ts.Sparse = shard >= 0
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
	s := c.part.ShardOf(f.DirID)
	if c.shard >= 0 && s != c.shard {
		return fmt.Errorf("distribute: file %d belongs to shard %d, document claims shard %d (%w)", f.ID, s, c.shard, fsimage.ErrManifestIntegrity)
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
// its integrity hash and the sealing trailer, and validating the shard's
// records against the embedded plan header. The restored plan fingerprint
// is the plan's, so manifests bind to it.
func DecodeShardView(r io.Reader) (*ShardView, error) {
	var c *recordCheck
	if err := readDocument(r, func(hdr *Plan, shard int) (fsimage.RecordSink, error) {
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
