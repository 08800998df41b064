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

// A PlanFile is a plan path opened for what it holds. A plan reaches a
// process in one of three shapes — a plan document, a fragment index (what
// `plan -partition` writes; its fragments lie next to it) or one shard
// document (a fragment, or a daemon's shard slice) — and the worker, the
// merge and the stitcher take each of them at the same path.
type PlanFile struct {
	path     string
	shardDoc bool
	index    *FragmentIndex // nil unless the path holds a fragment index
}

// OpenPlanFile is the one function that tells the three shapes apart, by the
// first key of the path's JSON object: "header" opens a plan document,
// "format_version" a fragment index, which is read whole here, and "view" a
// shard document. Anything else is ErrManifestIntegrity. The documents are
// read, and verified, by View and Source.
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
	case planDoc.head:
	case shardDoc.head:
		pf.shardDoc = true
	case "format_version":
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, fmt.Errorf("distribute: %w", err)
		}
		if pf.index, err = DecodeFragmentIndex(f); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("distribute: %s is neither a plan document, a fragment index nor a shard document (%w)", path, fsimage.ErrManifestIntegrity)
	}
	return pf, nil
}

// View decodes the shard a worker executes through the shard-pruning
// decoder: the given shard of a plan document or of an index (its fragment),
// or the one a shard document carries, which shard must then be -1 or name.
// Naming no shard of a whole plan, a shard it does not have, or another one
// than a shard document's is ErrInvalidSpec. A fragment must carry the shard
// the index files it under and match the index (see Source).
func (pf *PlanFile) View(shard int) (*ShardView, error) {
	switch {
	case pf.shardDoc:
		v, err := loadFile(pf.path, DecodeShardView)
		if err == nil && shard >= 0 && v.Shard != shard {
			return nil, fmt.Errorf("distribute: %s is the document of shard %d, not of shard %d (%w)", pf.path, v.Shard, shard, fsimage.ErrInvalidSpec)
		}
		return v, err
	case shard < 0:
		return nil, fmt.Errorf("distribute: %s holds every shard of its plan; name the one to execute (%w)", pf.path, fsimage.ErrInvalidSpec)
	case pf.index == nil:
		return LoadPlanShard(pf.path, shard)
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

// Source replays the whole plan, opening the path again on every replay: a
// plan document through DocumentSource, an index through FragmentSource over
// its fragments, whose header must describe the plan the index names — the
// same fingerprint, shard count and totals, or ErrManifestIntegrity. A shard
// document holds one shard, not a plan: replaying it is ErrInvalidSpec.
func (pf *PlanFile) Source(ctx context.Context) PlanSource {
	return func(open func(*Plan) (fsimage.RecordSink, error)) error {
		switch {
		case pf.shardDoc:
			return fmt.Errorf("distribute: %s is one shard's document, not a whole plan (%w)", pf.path, fsimage.ErrInvalidSpec)
		case pf.index != nil:
			src := FragmentSource(ctx, pf.index.Shards, func(shard int) (io.ReadCloser, error) { return os.Open(pf.fragment(shard)) })
			return src(func(hdr *Plan) (fsimage.RecordSink, error) {
				if err := pf.index.check(hdr); err != nil {
					return nil, err
				}
				return open(hdr)
			})
		}
		f, err := os.Open(pf.path)
		if err != nil {
			return fmt.Errorf("distribute: %w", err)
		}
		defer f.Close()
		return DocumentSource(f)(open)
	}
}

// fragment is the path of an index's fragment of shard.
func (pf *PlanFile) fragment(shard int) string {
	return filepath.Join(filepath.Dir(pf.path), pf.index.Fragments[shard])
}
