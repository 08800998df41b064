//go:build unix

package distribute

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"testing"

	"impressions/internal/content"
	"impressions/internal/fsimage"
)

// The failure-path suite of the VFS executor: every writer that puts a
// shard's files on disk — Image.Materialize and Execute's directory target,
// plain and journaled — is driven into the same faults at Parallelism 1 and
// 4, and must return the cause (errors.Is), no result, and no goroutine.
// Where the outcome is deterministic the suite also counts the files left
// on disk: a failed or cancelled write must stop the files behind it.
//
// The faults are ones a process running as root cannot talk its way past
// (an unwritable directory is writable to root): a regular file where a
// directory belongs (ENOTDIR, met by the directory pass, before any file),
// a name the file system refuses (ENAMETOOLONG, met at exactly that file),
// and a FIFO in a file's place, which holds the writer inside that file
// until the test has cancelled the context.

// vfsWriter is one way of writing a shard's files under root.
type vfsWriter struct {
	name string
	// ordered says the whole shard goes through one MaterializeShardRecords
	// call, so at Parallelism 1 the files land in writeOrder.
	ordered bool
	run     func(ctx context.Context, v *ShardView, root string, j int) (gotResult bool, err error)
}

func vfsWriters(t *testing.T) []vfsWriter {
	execute := func(ctx context.Context, v *ShardView, root string, opts WorkerOptions) (bool, error) {
		res, err := Execute(ctx, v, DirTarget(root), opts)
		return res != nil, err
	}
	return []vfsWriter{
		{name: "Image.Materialize", ordered: true, run: func(ctx context.Context, v *ShardView, root string, j int) (bool, error) {
			img := &fsimage.Image{Tree: v.Tree, Files: v.Files}
			_, err := img.Materialize(root, fsimage.MaterializeOptions{
				Registry: content.NewRegistry(content.Kind(v.Plan.ContentKind)), Seed: v.Plan.Seed, Parallelism: j, Context: ctx})
			return false, err
		}},
		{name: "Execute dir", ordered: true, run: func(ctx context.Context, v *ShardView, root string, j int) (bool, error) {
			return execute(ctx, v, root, WorkerOptions{Parallelism: j})
		}},
		{name: "Execute dir journaled", run: func(ctx context.Context, v *ShardView, root string, j int) (bool, error) {
			return execute(ctx, v, root, WorkerOptions{Parallelism: j, JournalPath: filepath.Join(t.TempDir(), "journal"), BatchFiles: 8})
		}},
	}
}

// writeOrder returns the indices of files in the order one
// MaterializeShardRecords call writes them at Parallelism 1: by directory,
// then by position.
func writeOrder(files []fsimage.File) []int {
	order := make([]int, len(files))
	for k := range order {
		order[k] = k
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(files[a].DirID, files[b].DirID) })
	return order
}

// withFiles returns a copy of the view over a private copy of its files, so
// a case can spoil one record.
func withFiles(v *ShardView) *ShardView {
	c := *v
	c.Files = slices.Clone(v.Files)
	return &c
}

// regularFiles counts the regular files under root.
func regularFiles(t *testing.T, root string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			n++
		}
		return err
	})
	if err != nil {
		t.Fatalf("walking %s: %v", root, err)
	}
	return n
}

// fivePositions spreads five indices over [0, n): first, quartiles, last.
func fivePositions(n int) []int {
	return []int{0, n / 4, n / 2, 3 * n / 4, n - 1}
}

// goldenShard is the pinned plan's shard 1: 179 files, 22 journal batches
// of 8 and one of 3.
func goldenShard(t *testing.T) *ShardView {
	t.Helper()
	view, err := planRoundTrip(t, testConfig(), 3).ShardView(1)
	if err != nil {
		t.Fatalf("ShardView: %v", err)
	}
	return view
}

func TestVFSWriteFailures(t *testing.T) {
	pristine := goldenShard(t)
	order := writeOrder(pristine.Files)
	largest := 0 // position in the write order of the largest file
	for p, k := range order {
		if pristine.Files[k].Size > pristine.Files[order[largest]].Size {
			largest = p
		}
	}

	type fault struct {
		name string
		// arm prepares root and the (private) view, and returns the context
		// to run under, the error the run must return, how many regular
		// files an ordered writer leaves at Parallelism 1 (-1: not
		// checked), and a function to call once the run has returned.
		arm func(t *testing.T, v *ShardView, root string) (ctx context.Context, cause error, left int, after func())
	}
	var faults []fault
	for _, p := range fivePositions(len(pristine.Dirs)) {
		id := pristine.Dirs[p]
		if id == 0 {
			id = pristine.Dirs[p+1] // the root is the caller's to create
		}
		faults = append(faults, fault{fmt.Sprintf("ENOTDIR at directory %d", p), func(t *testing.T, v *ShardView, root string) (context.Context, error, int, func()) {
			// A regular file where the directory belongs: one blocker file,
			// and the directory pass must fail before any other exists.
			blocker := filepath.Join(root, filepath.FromSlash(v.Tree.Path(id)))
			if err := os.MkdirAll(filepath.Dir(blocker), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(blocker, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			return context.Background(), syscall.ENOTDIR, -1, func() {
				if n := regularFiles(t, root); n != 1 {
					t.Errorf("%d regular files under the root, want only the blocker: the directory pass comes first", n)
				}
			}
		}})
	}
	for _, p := range fivePositions(len(order)) {
		faults = append(faults, fault{fmt.Sprintf("ENAMETOOLONG at file %d", p), func(t *testing.T, v *ShardView, root string) (context.Context, error, int, func()) {
			v.Files[order[p]].Name = strings.Repeat("x", 300)
			return context.Background(), syscall.ENAMETOOLONG, p, func() {}
		}})
	}
	faults = append(faults,
		fault{"cancelled inside the largest file", func(t *testing.T, v *ShardView, root string) (context.Context, error, int, func()) {
			// A FIFO in the file's place: the writer blocks opening it until
			// this side opens it too, which is how the test knows the writer
			// is inside that file. Cancel then, and only then let it finish.
			f := v.Files[order[largest]]
			fifo := filepath.Join(root, filepath.FromSlash(v.Tree.Path(f.DirID)), f.Name)
			if err := os.MkdirAll(filepath.Dir(fifo), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := syscall.Mkfifo(fifo, 0o644); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			drained := make(chan error, 1)
			go func() {
				r, err := os.Open(fifo)
				cancel()
				if err == nil {
					_, err = io.Copy(io.Discard, r)
					r.Close()
				}
				drained <- err
			}()
			return ctx, context.Canceled, largest, func() {
				if err := <-drained; err != nil {
					t.Errorf("draining the FIFO: %v", err)
				}
			}
		}},
		fault{"cancelled before the first file", func(t *testing.T, v *ShardView, root string) (context.Context, error, int, func()) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, context.Canceled, -1, func() {
				if n := regularFiles(t, root); n != 0 {
					t.Errorf("%d files written under a context cancelled from the start", n)
				}
			}
		}},
	)

	for _, w := range vfsWriters(t) {
		for _, j := range []int{1, 4} {
			for _, f := range faults {
				t.Run(fmt.Sprintf("%s j=%d %s", w.name, j, f.name), func(t *testing.T) {
					root := t.TempDir()
					v := withFiles(pristine)
					baseline := runtime.NumGoroutine()
					ctx, cause, left, after := f.arm(t, v, root)
					gotResult, err := w.run(ctx, v, root, j)
					after()
					if !errors.Is(err, cause) {
						t.Fatalf("got error %v, want %v", err, cause)
					}
					if gotResult {
						t.Error("a failed execution returned a result")
					}
					if w.ordered && j == 1 && left >= 0 {
						if n := regularFiles(t, root); n != left {
							t.Errorf("%d regular files left, want %d: the files behind the fault must not be started", n, left)
						}
					}
					checkGoroutines(t, baseline)
				})
			}
		}
	}
}

// TestJournaledFailureMidBatch: a write failing inside batch b leaves a
// journal covering exactly the b sealed batches before it — nothing of the
// failed batch, although some of its files are on disk — and a second
// execution resumes from there to the pinned manifest.
func TestJournaledFailureMidBatch(t *testing.T) {
	const batch = 8
	pristine := goldenShard(t)
	for _, j := range []int{1, 4} {
		for _, b := range []int{0, 5, len(pristine.Files) / batch} {
			t.Run(fmt.Sprintf("j=%d batch %d", j, b), func(t *testing.T) {
				root, journal := t.TempDir(), filepath.Join(t.TempDir(), "journal")
				opts := WorkerOptions{Parallelism: j, JournalPath: journal, BatchFiles: batch}
				spoiled := withFiles(pristine)
				// The batch's last file in write order, so the rest of it
				// is written before the failure at Parallelism 1.
				lo, hi := b*batch, min((b+1)*batch, len(pristine.Files))
				inBatch := writeOrder(pristine.Files[lo:hi])
				spoiled.Files[lo+inBatch[len(inBatch)-1]].Name = strings.Repeat("x", 300)

				baseline := runtime.NumGoroutine()
				res, err := Execute(context.Background(), spoiled, DirTarget(root), opts)
				if !errors.Is(err, syscall.ENAMETOOLONG) || res != nil {
					t.Fatalf("got %v, %v; want no result and ENAMETOOLONG", res, err)
				}
				checkGoroutines(t, baseline)
				rec, err := loadJournal(journal, pristine.Plan.Fingerprint(), pristine.Shard)
				if err != nil {
					t.Fatalf("the failed run's journal does not verify: %v", err)
				}
				if len(rec.digests) != lo {
					t.Fatalf("journal covers %d files, want the %d of the %d sealed batches", len(rec.digests), lo, b)
				}
				if j == 1 {
					if n := regularFiles(t, root); n != hi-1 {
						t.Errorf("%d files on disk, want %d: all of the failed batch but its last", n, hi-1)
					}
				}

				res, err = Execute(context.Background(), pristine, DirTarget(root), opts)
				if err != nil {
					t.Fatalf("resumed execution: %v", err)
				}
				if res.ResumedFiles != lo || res.Manifest.ManifestSHA256 != goldenManifests[1] {
					t.Errorf("resumed %d files to manifest %s, want %d and %s", res.ResumedFiles, res.Manifest.ManifestSHA256, lo, goldenManifests[1])
				}
			})
		}
	}
}

// failingWriter fails with errSink once limit bytes have been accepted, and
// runs onWrite before every write.
type failingWriter struct {
	limit, n int
	onWrite  func(written int)
}

var errSink = errors.New("sink refused the write")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.onWrite != nil {
		w.onWrite(w.n)
	}
	if w.n+len(p) > w.limit {
		return 0, errSink
	}
	w.n += len(p)
	return len(p), nil
}

// TestTarTargetFailures: the tar target hands Execute's caller the cause of
// a failed or abandoned segment, no result, and no goroutine. (What the
// segment writer itself does under each fault is internal/imgfmt's suite.)
func TestTarTargetFailures(t *testing.T) {
	view := goldenShard(t)
	var seg bytes.Buffer
	if _, err := Execute(context.Background(), view, TarTarget(&seg), WorkerOptions{}); err != nil {
		t.Fatalf("clean segment: %v", err)
	}
	size := seg.Len()
	for _, j := range []int{1, 4} {
		run := func(ctx context.Context, name string, w io.Writer, cause error) {
			t.Run(fmt.Sprintf("j=%d %s", j, name), func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				res, err := Execute(ctx, view, TarTarget(w), WorkerOptions{Parallelism: j})
				if !errors.Is(err, cause) || res != nil {
					t.Fatalf("got %v, %v; want no result and %v", res, err, cause)
				}
				checkGoroutines(t, baseline)
			})
		}
		for _, p := range fivePositions(size) {
			run(context.Background(), fmt.Sprintf("writer fails at byte %d", p), &failingWriter{limit: p}, errSink)
		}
		ctx, cancel := context.WithCancel(context.Background())
		run(ctx, "cancelled mid-segment", &failingWriter{limit: size, onWrite: func(written int) {
			if written >= size/2 {
				cancel()
			}
		}}, context.Canceled)
		cancelled, cancel2 := context.WithCancel(context.Background())
		cancel2()
		run(cancelled, "cancelled before the first file", io.Discard, context.Canceled)
	}
}
