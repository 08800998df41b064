// Package serve turns the distributed generation pipeline into a
// long-running service: a content-addressed plan cache keyed by
// distribute.SpecFingerprint, fronted by an HTTP API (Server) that builds
// plans on demand, streams them and their per-shard slices in O(chunk)
// memory, and generates small images inline. See cmd/impressionsd for the
// daemon wrapping it.
package serve

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// ErrPlanNotFound reports a fingerprint with no stored plan. Stores return
// it from Open; the HTTP layer maps it to 404.
var ErrPlanNotFound = errors.New("serve: plan not in store")

// PlanStore is the content-addressed plan cache behind the server: plan
// documents keyed by their spec fingerprint. Implementations must allow
// concurrent Opens of the same key while another goroutine Creates a
// different one, and a reader obtained from Open must stay valid even if
// the entry is evicted mid-read.
type PlanStore interface {
	// Open returns a reader over the stored plan document and its size, or
	// ErrPlanNotFound.
	Open(fingerprint string) (io.ReadCloser, int64, error)
	// Create starts writing a plan document for the fingerprint. The entry
	// becomes visible to Open only when the writer's Commit returns; Abort
	// (or dropping the writer) leaves the store unchanged.
	Create(fingerprint string) (PlanWriter, error)
}

// PlanWriter stages one plan document for atomic publication.
type PlanWriter interface {
	io.Writer
	// Commit atomically publishes the staged document under its fingerprint.
	Commit() error
	// Abort discards the staged document. Safe to call after Commit (no-op).
	Abort() error
}

// MemStore is the in-memory PlanStore: an LRU over plan documents with a
// byte budget. The most recently committed entry is never evicted (a plan
// larger than the whole budget still caches — everything else goes), so a
// build is always followed by at least one hit. Readers hold a snapshot of
// the entry's bytes, so eviction never invalidates an open reader.
type MemStore struct {
	mu     sync.Mutex
	budget int64
	used   int64
	lru    *list.List               // front = most recently used
	byFP   map[string]*list.Element // value: *memEntry
}

type memEntry struct {
	fp   string
	data []byte
}

// NewMemStore returns an in-memory store holding at most budget bytes of
// plan documents (<= 0 selects 256 MiB).
func NewMemStore(budget int64) *MemStore {
	if budget <= 0 {
		budget = 256 << 20
	}
	return &MemStore{budget: budget, lru: list.New(), byFP: map[string]*list.Element{}}
}

// Open returns a reader over the cached document, refreshing its recency.
func (s *MemStore) Open(fp string) (io.ReadCloser, int64, error) {
	s.mu.Lock()
	el, ok := s.byFP[fp]
	if !ok {
		s.mu.Unlock()
		return nil, 0, fmt.Errorf("%w (fingerprint %s)", ErrPlanNotFound, fp)
	}
	s.lru.MoveToFront(el)
	data := el.Value.(*memEntry).data
	s.mu.Unlock()
	return io.NopCloser(bytes.NewReader(data)), int64(len(data)), nil
}

// Create stages a new document in a private buffer.
func (s *MemStore) Create(fp string) (PlanWriter, error) {
	return &memWriter{store: s, fp: fp}, nil
}

// insert publishes data under fp, evicting least-recently-used entries
// (never the new one) until the budget holds.
func (s *MemStore) insert(fp string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byFP[fp]; ok {
		// A concurrent builder beat us to it; keep the existing entry (the
		// documents are byte-identical by construction).
		s.lru.MoveToFront(el)
		return
	}
	el := s.lru.PushFront(&memEntry{fp: fp, data: data})
	s.byFP[fp] = el
	s.used += int64(len(data))
	for s.used > s.budget && s.lru.Len() > 1 {
		back := s.lru.Back()
		victim := back.Value.(*memEntry)
		s.lru.Remove(back)
		delete(s.byFP, victim.fp)
		s.used -= int64(len(victim.data))
	}
}

type memWriter struct {
	store *MemStore
	fp    string
	buf   bytes.Buffer
	done  bool
}

func (w *memWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

func (w *memWriter) Commit() error {
	if w.done {
		return nil
	}
	w.done = true
	w.store.insert(w.fp, bytes.Clone(w.buf.Bytes()))
	return nil
}

func (w *memWriter) Abort() error {
	w.done = true
	w.buf.Reset()
	return nil
}

// DiskStore is the durable PlanStore: one file per fingerprint under a
// directory, staged via a temp file and published with an atomic rename, so
// crashed builds never leave a half-written plan visible and concurrent
// readers of an entry being replaced keep their open file.
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

func (s *DiskStore) path(fp string) string {
	return filepath.Join(s.dir, fp+".plan.json")
}

// Open returns a reader over the stored plan file.
func (s *DiskStore) Open(fp string) (io.ReadCloser, int64, error) {
	f, err := os.Open(s.path(fp))
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, fmt.Errorf("%w (fingerprint %s)", ErrPlanNotFound, fp)
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

// Create stages a new plan file next to its final path.
func (s *DiskStore) Create(fp string) (PlanWriter, error) {
	tmp, err := os.CreateTemp(s.dir, fp+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("serve: plan store: %w", err)
	}
	return &diskWriter{f: tmp, final: s.path(fp)}, nil
}

type diskWriter struct {
	f     *os.File
	final string
	done  bool
}

func (w *diskWriter) Write(p []byte) (int, error) { return w.f.Write(p) }

func (w *diskWriter) Commit() error {
	if w.done {
		return nil
	}
	w.done = true
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		os.Remove(w.f.Name())
		return fmt.Errorf("serve: plan store: %w", err)
	}
	if err := w.f.Close(); err != nil {
		os.Remove(w.f.Name())
		return fmt.Errorf("serve: plan store: %w", err)
	}
	if err := os.Rename(w.f.Name(), w.final); err != nil {
		os.Remove(w.f.Name())
		return fmt.Errorf("serve: plan store: %w", err)
	}
	return nil
}

func (w *diskWriter) Abort() error {
	if w.done {
		return nil
	}
	w.done = true
	w.f.Close()
	os.Remove(w.f.Name())
	return nil
}
