package distribute

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"impressions/internal/fsimage"
)

// A PlanFile is a plan path opened for what it holds: a fragment index (what
// `plan` writes; its fragments lie next to it) or one shard document (a
// fragment, or a daemon's shard). The worker, the merge and the stitcher
// take either at the same path.
type PlanFile struct {
	path  string
	index *FragmentIndex // nil when the path holds a shard document
}

// OpenPlanFile is the one function that tells the shapes apart, by the first
// key of the path's JSON object: "format_version" opens a fragment index,
// which is read whole here, and "view" a shard document. A plan document,
// the single-document shape earlier builds wrote ("header"), is
// ErrPlanVersion; anything else is ErrManifestIntegrity. The shard documents
// are read, and verified, by View and Source.
func OpenPlanFile(path string) (*PlanFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("distribute: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var key json.Token
	if tok, err := dec.Token(); err == nil && tok == json.Delim('{') {
		key, _ = dec.Token()
	}
	pf := &PlanFile{path: path}
	switch key {
	case "view":
	case "format_version":
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, fmt.Errorf("distribute: %w", err)
		}
		if pf.index, err = DecodeFragmentIndex(f); err != nil {
			return nil, err
		}
	case "header":
		return nil, fmt.Errorf("distribute: %s is a plan document, which this build no longer reads; plan again for a fragment index (%w)", path, fsimage.ErrPlanVersion)
	default:
		return nil, fmt.Errorf("distribute: %s is neither a fragment index nor a shard document (%w)", path, fsimage.ErrManifestIntegrity)
	}
	return pf, nil
}

// View decodes the shard a worker executes: the given shard's fragment of an
// index, or the one a shard document carries, which shard must then be -1 or
// name. Naming no shard of an index, a shard it does not have, or another
// one than a shard document's is ErrInvalidSpec. A fragment must carry the
// shard the index files it under and match the index (see Source).
func (pf *PlanFile) View(shard int) (*ShardView, error) {
	switch {
	case pf.index == nil:
		v, err := loadFile(pf.path, DecodeShardView)
		if err == nil && shard >= 0 && v.Shard != shard {
			return nil, fmt.Errorf("distribute: %s is the document of shard %d, not of shard %d (%w)", pf.path, v.Shard, shard, fsimage.ErrInvalidSpec)
		}
		return v, err
	case shard < 0:
		return nil, fmt.Errorf("distribute: %s holds every shard of its plan; name the one to execute (%w)", pf.path, fsimage.ErrInvalidSpec)
	case shard >= pf.index.Shards:
		return nil, fmt.Errorf("distribute: shard %d out of range (the index has %d fragments) (%w)", shard, pf.index.Shards, fsimage.ErrInvalidSpec)
	}
	v, err := loadFile(pf.fragment(shard), DecodeShardView)
	if err == nil && v.Shard != shard {
		err = fmt.Errorf("distribute: the index files fragment %s under shard %d, it carries shard %d (%w)", pf.index.Fragments[shard], shard, v.Shard, fsimage.ErrManifestIntegrity)
	}
	if err == nil {
		err = pf.index.check(v.Plan)
	}
	if err != nil {
		return nil, err
	}
	return v, nil
}

// Source replays the whole plan of an index from its fragments
// (FragmentIndex.Source), opening them again on every replay. A shard
// document holds one shard, not a plan: replaying it is ErrInvalidSpec.
func (pf *PlanFile) Source(ctx context.Context) PlanSource {
	if pf.index == nil {
		return func(func(*Plan) (fsimage.RecordSink, error)) error {
			return fmt.Errorf("distribute: %s is one shard's document, not a whole plan (%w)", pf.path, fsimage.ErrInvalidSpec)
		}
	}
	return pf.index.Source(ctx, func(shard int) (io.ReadCloser, error) { return os.Open(pf.fragment(shard)) })
}

// fragment is the path of an index's fragment of shard.
func (pf *PlanFile) fragment(shard int) string {
	return filepath.Join(filepath.Dir(pf.path), pf.index.Fragments[shard])
}
