// Package serve turns the distributed generation pipeline into a
// long-running service: a content-addressed plan cache keyed by
// distribute.SpecFingerprint, fronted by an HTTP API (Server) that builds
// plans on demand, serves their fragment indexes and fragments as stored,
// and generates small images inline. See cmd/impressionsd for the daemon
// wrapping it.
package serve

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"impressions/internal/distribute"
	"impressions/internal/fsimage"
)

// ErrPlanNotFound reports a fingerprint with no stored plan. Stores return
// it from Open; the HTTP layer maps it to 404.
var ErrPlanNotFound = errors.New("serve: plan not in store")

// IndexPart is the part of a stored plan that holds its fragment index;
// parts 0 to K-1 are its K fragments.
const IndexPart = -1

// PlanStore is the content-addressed plan cache behind the server: one
// entry per spec fingerprint, holding the plan's fragment index and its
// fragments, which are staged and committed together and evicted together.
// Implementations must allow concurrent Opens of the same key while another
// goroutine Creates a different one, and an entry obtained from Open must
// stay readable even if it is evicted while it is read.
type PlanStore interface {
	// Open returns the committed entry of the fingerprint, or
	// ErrPlanNotFound.
	Open(fingerprint string) (PlanEntry, error)
	// Create starts staging an entry for the fingerprint. The entry becomes
	// visible to Open only when the writer's Commit returns; Abort (or
	// dropping the writer) leaves the store unchanged.
	Create(fingerprint string) (PlanWriter, error)
}

// PlanEntry is one committed plan: its fragment index and its fragments.
type PlanEntry interface {
	// Open returns a reader over a part — IndexPart or a shard's fragment —
	// and its size. A shard the plan does not have is ErrInvalidSpec.
	Open(part int) (io.ReadCloser, int64, error)
}

// PlanWriter stages one plan entry for atomic publication.
type PlanWriter interface {
	// Part creates one part of the entry; closing it ends the part.
	Part(part int) (io.WriteCloser, error)
	// Commit atomically publishes the staged parts under the fingerprint.
	Commit() error
	// Abort discards the staged parts. Safe to call after Commit (no-op).
	Abort() error
}

// validFingerprint reports whether fp is what distribute.SpecFingerprint
// produces: 64 lowercase hex digits. Nothing else names a plan, and nothing
// else may reach a path.
func validFingerprint(fp string) bool {
	if len(fp) != 64 {
		return false
	}
	for _, c := range []byte(fp) {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// noShard is the error of a part the entry does not have.
func noShard(fp string, part int) error {
	return fmt.Errorf("serve: plan %.12s has no shard %d (%w)", fp, part, fsimage.ErrInvalidSpec)
}

// MemStore is the in-memory PlanStore: an LRU over plan entries with a byte
// budget. The most recently committed entry is never evicted (a plan larger
// than the whole budget still caches — everything else goes), so a build is
// always followed by at least one hit. An entry holds the bytes of its
// parts, so eviction never invalidates one that was opened.
type MemStore struct {
	mu     sync.Mutex
	budget int64
	used   int64
	lru    *list.List               // front = most recently used
	byFP   map[string]*list.Element // value: *memEntry
}

type memEntry struct {
	fp    string
	parts map[int][]byte
	size  int64
}

func (e *memEntry) Open(part int) (io.ReadCloser, int64, error) {
	data, ok := e.parts[part]
	if !ok {
		return nil, 0, noShard(e.fp, part)
	}
	return io.NopCloser(bytes.NewReader(data)), int64(len(data)), nil
}

// NewMemStore returns an in-memory store holding at most budget bytes of
// plans (<= 0 selects 256 MiB).
func NewMemStore(budget int64) *MemStore {
	if budget <= 0 {
		budget = 256 << 20
	}
	return &MemStore{budget: budget, lru: list.New(), byFP: map[string]*list.Element{}}
}

// Open returns the cached entry, refreshing its recency.
func (s *MemStore) Open(fp string) (PlanEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byFP[fp]
	if !ok {
		return nil, fmt.Errorf("%w (fingerprint %s)", ErrPlanNotFound, fp)
	}
	s.lru.MoveToFront(el)
	return el.Value.(*memEntry), nil
}

// Create stages a new entry in private buffers.
func (s *MemStore) Create(fp string) (PlanWriter, error) {
	return &memWriter{store: s, entry: &memEntry{fp: fp, parts: map[int][]byte{}}}, nil
}

// insert publishes e, evicting least-recently-used entries (never the new
// one) until the budget holds.
func (s *MemStore) insert(e *memEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byFP[e.fp]; ok {
		// A concurrent builder beat us to it; keep the existing entry (the
		// plans are byte-identical by construction).
		s.lru.MoveToFront(el)
		return
	}
	s.byFP[e.fp] = s.lru.PushFront(e)
	s.used += e.size
	for s.used > s.budget && s.lru.Len() > 1 {
		back := s.lru.Back()
		victim := back.Value.(*memEntry)
		s.lru.Remove(back)
		delete(s.byFP, victim.fp)
		s.used -= victim.size
	}
}

type memWriter struct {
	store *MemStore
	entry *memEntry
	done  bool
}

// memPart is one part being written; Close files it under the entry.
type memPart struct {
	bytes.Buffer
	w    *memWriter
	part int
}

func (p *memPart) Close() error {
	p.w.entry.parts[p.part] = p.Bytes()
	p.w.entry.size += int64(p.Len())
	return nil
}

func (w *memWriter) Part(part int) (io.WriteCloser, error) {
	return &memPart{w: w, part: part}, nil
}

func (w *memWriter) Commit() error {
	if w.done {
		return nil
	}
	w.done = true
	w.store.insert(w.entry)
	return nil
}

func (w *memWriter) Abort() error {
	w.done = true
	return nil
}

// DiskStore is the durable PlanStore: one directory per fingerprint under a
// root, holding the fragment index under the fingerprint's name and fragment
// i as <fingerprint>.frag<i> — a plan `merge -plan` opens as it lies. An
// entry is staged in a temporary directory, synced, and published with an
// atomic rename, so a crashed build never leaves a half-written plan
// visible; an entry that lost a part all the same is removed when it is
// next opened, and rebuilt. It takes no key but a fingerprint, and ignores
// whatever else the root holds.
type DiskStore struct {
	dir string
}

// NewDiskStore returns a store rooted at dir, creating it if needed.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: plan store: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// partName is the file name of an entry's part.
func partName(fp string, part int) string {
	if part == IndexPart {
		return fp
	}
	return distribute.FragmentName(fp, part)
}

func checkKey(fp string) error {
	if !validFingerprint(fp) {
		return fmt.Errorf("serve: plan store: %q is not a plan fingerprint (%w)", fp, fsimage.ErrInvalidSpec)
	}
	return nil
}

// Open returns the committed entry's directory. An entry without its index
// or a fragment the index names — a crash before the staged directory
// reached the disk — is not a plan: Open removes it and reports
// ErrPlanNotFound, so the request that asked for it builds it again.
func (s *DiskStore) Open(fp string) (PlanEntry, error) {
	if err := checkKey(fp); err != nil {
		return nil, err
	}
	e := diskEntry{dir: filepath.Join(s.dir, fp), fp: fp}
	err := e.load()
	if errors.Is(err, os.ErrNotExist) || errors.Is(err, fsimage.ErrManifestIntegrity) || errors.Is(err, fsimage.ErrPlanVersion) {
		if err := os.RemoveAll(e.dir); err != nil {
			return nil, fmt.Errorf("serve: plan store: removing a damaged entry: %w", err)
		}
		return nil, fmt.Errorf("%w (fingerprint %s)", ErrPlanNotFound, fp)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: plan store: %w", err)
	}
	return e, nil
}

// Create stages a new entry in a directory next to its final one.
func (s *DiskStore) Create(fp string) (PlanWriter, error) {
	if err := checkKey(fp); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(s.dir, fp+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("serve: plan store: %w", err)
	}
	return &diskWriter{tmp: tmp, fp: fp, final: filepath.Join(s.dir, fp)}, nil
}

// diskEntry is a committed entry's directory. A whole committed directory
// is never replaced, so its parts are the ones committed together.
type diskEntry struct {
	dir, fp string
	shards  int // the fragments the index names
}

// load reads the entry's index and requires every fragment it names.
func (e *diskEntry) load() error {
	f, err := os.Open(filepath.Join(e.dir, e.fp))
	if err != nil {
		return err
	}
	ix, err := distribute.DecodeFragmentIndex(f)
	f.Close()
	for s := 0; err == nil && s < ix.Shards; s++ {
		_, err = os.Stat(filepath.Join(e.dir, partName(e.fp, s)))
	}
	if err == nil {
		e.shards = ix.Shards
	}
	return err
}

func (e diskEntry) Open(part int) (io.ReadCloser, int64, error) {
	if part < IndexPart || part >= e.shards {
		return nil, 0, noShard(e.fp, part)
	}
	f, err := os.Open(filepath.Join(e.dir, partName(e.fp, part)))
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, fmt.Errorf("%w (fingerprint %s lost its part %d)", ErrPlanNotFound, e.fp, part)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("serve: plan store: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("serve: plan store: %w", err)
	}
	return f, st.Size(), nil
}

type diskWriter struct {
	tmp, fp, final string
	done           bool
}

// diskPart is one part being written; Close syncs it.
type diskPart struct{ *os.File }

func (p diskPart) Close() error {
	if err := p.Sync(); err != nil {
		p.File.Close()
		return err
	}
	return p.File.Close()
}

func (w *diskWriter) Part(part int) (io.WriteCloser, error) {
	f, err := os.Create(filepath.Join(w.tmp, partName(w.fp, part)))
	if err != nil {
		return nil, fmt.Errorf("serve: plan store: %w", err)
	}
	return diskPart{f}, nil
}

// syncDir makes a directory's entries durable. Windows cannot open a
// directory for syncing, and does not need to.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Commit publishes the staged directory. Its parts were synced as they
// closed; syncing the directory makes their names durable before the rename
// publishes them, and syncing the root makes the rename durable.
func (w *diskWriter) Commit() error {
	if w.done {
		return nil
	}
	w.done = true
	err := syncDir(w.tmp)
	if err == nil {
		err = os.Rename(w.tmp, w.final)
	}
	if err != nil {
		os.RemoveAll(w.tmp)
		if _, serr := os.Stat(w.final); serr == nil {
			// A concurrent builder committed first; the plans are
			// byte-identical by construction.
			return nil
		}
		return fmt.Errorf("serve: plan store: %w", err)
	}
	if err := syncDir(filepath.Dir(w.final)); err != nil {
		return fmt.Errorf("serve: plan store: %w", err)
	}
	return nil
}

func (w *diskWriter) Abort() error {
	if w.done {
		return nil
	}
	w.done = true
	return os.RemoveAll(w.tmp)
}
