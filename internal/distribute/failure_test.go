//go:build unix

package distribute

import (
	"bytes"
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
// 4, and must return the cause (errors.Is), no result, no goroutine and no
// open descriptor (the writer's are raw: no finalizer would close a leaked
// one). Where the outcome is deterministic the suite also counts the files
// left on disk: a failed or cancelled write must stop the files behind it.
// Each fault lands at five places over the directories or the files: the
// first, the quartiles and the last. On Linux a worker holds a descriptor
// on the directory whose run of files it is writing, so three faults also
// land inside a run: at its second file, and a cancellation in its middle.
//
// The faults are ones a process running as root cannot talk its way past
// (an unwritable directory is writable to root): a regular file where a
// directory belongs (ENOTDIR, met by the directory pass, before any file),
// a name the file system refuses (ENAMETOOLONG, met at exactly that file),
// a symlink to /dev/full in a file's place (ENOSPC from its write, EINVAL
// from its ftruncate under MetadataOnly), and a FIFO in a file's place,
// which holds the writer inside that file until the test has cancelled the
// context.

// vfsWriter is one way of writing a shard's files under root.
type vfsWriter struct {
	name string
	run  func(ctx context.Context, v *ShardView, root string, j int, metadataOnly bool) (gotResult bool, err error)
}

func vfsWriters(t *testing.T) []vfsWriter {
	execute := func(ctx context.Context, v *ShardView, root string, opts WorkerOptions) (bool, error) {
		res, err := Execute(ctx, v, DirTarget(root), opts)
		return res != nil, err
	}
	return []vfsWriter{
		{name: "Image.Materialize", run: func(ctx context.Context, v *ShardView, root string, j int, metadataOnly bool) (bool, error) {
			img := &fsimage.Image{Tree: v.Tree, Files: v.Files}
			// A failed write reports nothing: a digest OnDigest observed, or
			// a line folded (which a fold promising nothing refuses), is a
			// result.
			reported, fold := 0, fsimage.NewDigestFold(0, 0, 0)
			_, err := img.Materialize(root, fsimage.MaterializeOptions{
				Registry: content.NewRegistry(content.Kind(v.Plan.ContentKind)), Seed: v.Plan.Seed, Parallelism: j, Context: ctx, MetadataOnly: metadataOnly,
				OnDigest: func(fsimage.File, string) { reported++ }, Fold: fold})
			_, ferr := fold.Sum()
			return reported > 0 || ferr != nil, err
		}},
		{name: "Execute dir", run: func(ctx context.Context, v *ShardView, root string, j int, metadataOnly bool) (bool, error) {
			return execute(ctx, v, root, WorkerOptions{Parallelism: j, MetadataOnly: metadataOnly})
		}},
		{name: "Execute dir journaled", run: func(ctx context.Context, v *ShardView, root string, j int, metadataOnly bool) (bool, error) {
			return execute(ctx, v, root, WorkerOptions{Parallelism: j, MetadataOnly: metadataOnly, JournalPath: filepath.Join(t.TempDir(), "journal"), BatchFiles: 8})
		}},
	}
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

// openDescriptors counts the process's open file descriptors.
func openDescriptors(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/dev/fd")
	if err != nil {
		t.Fatalf("listing open descriptors: %v", err)
	}
	return len(entries)
}

// fivePositions spreads five indices over [0, n): first, quartiles, last.
func fivePositions(n int) []int {
	return []int{0, n / 4, n / 2, 3 * n / 4, n - 1}
}

func TestVFSWriteFailures(t *testing.T) {
	// Shard 0 of the golden plan: 29 files under 12 directories, the plan's
	// smallest shard, with runs of three files and more.
	pristine := planRoundTrip(t, testConfig(), 3).view(t, 0)
	files := pristine.Files // in canonical order, the order the writer takes
	largest := 0            // position of the largest file
	for p, f := range files {
		if f.Size > files[largest].Size {
			largest = p
		}
	}
	// Positions of the second file of the first
	// directory run of three or more files, and of the largest file with
	// files of its run on both sides: a fault at either meets a worker
	// holding that directory's descriptor mid-run.
	second, middle := -1, -1
	for lo, hi := 0, 0; lo < len(files); lo = hi {
		dir := files[lo].DirID
		for hi = lo + 1; hi < len(files) && files[hi].DirID == dir; hi++ {
		}
		if hi-lo >= 3 && second < 0 {
			second = lo + 1
		}
		for p := lo + 1; p < hi-1; p++ {
			if middle < 0 || files[p].Size > files[middle].Size {
				middle = p
			}
		}
	}
	if second < 0 {
		t.Fatal("the shard has no directory run of three files")
	}
	// No check here reads what a file holds, only where the writer met the
	// fault, so every file keeps at most 4 KiB (an empty one stays empty):
	// a fault late in the shard would otherwise write megabytes to disk
	// first. A cancellation makes its file 1 MiB: larger than a pipe's
	// buffer, it holds the writer inside the file until the test has
	// cancelled (the writer checks the context between files).
	for p := range files {
		files[p].Size = min(files[p].Size, 4<<10)
	}

	type fault struct {
		name         string
		metadataOnly bool
		// arm prepares root and the (private) view, and returns the context
		// to run under, the error the run must return, how many regular
		// files a writer leaves at Parallelism 1 (-1: not
		// checked), and a function to call with the run's error once it
		// has returned.
		arm func(t *testing.T, v *ShardView, root string) (ctx context.Context, cause error, left int, after func(error))
	}
	var faults []fault
	for _, p := range fivePositions(len(pristine.Dirs)) {
		id := pristine.Dirs[p]
		if id == 0 {
			id = pristine.Dirs[p+1] // the root is the caller's to create
		}
		faults = append(faults, fault{name: fmt.Sprintf("ENOTDIR at directory %d", p), arm: func(t *testing.T, v *ShardView, root string) (context.Context, error, int, func(error)) {
			// A regular file where the directory belongs: one blocker file,
			// and the directory pass must fail before any other exists.
			blocker := filepath.Join(root, filepath.FromSlash(v.Tree.Path(id)))
			if err := os.MkdirAll(filepath.Dir(blocker), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(blocker, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			return context.Background(), syscall.ENOTDIR, -1, func(error) {
				if n := regularFiles(t, root); n != 1 {
					t.Errorf("%d regular files under the root, want only the blocker: the directory pass comes first", n)
				}
			}
		}})
	}
	for _, p := range append(fivePositions(len(files)), second) {
		faults = append(faults, fault{name: fmt.Sprintf("ENAMETOOLONG at file %d", p), arm: func(t *testing.T, v *ShardView, root string) (context.Context, error, int, func(error)) {
			v.Files[p].Name = strings.Repeat("x", 300)
			return context.Background(), syscall.ENAMETOOLONG, p, func(error) {}
		}})
	}
	for _, metadataOnly := range []bool{false, true} {
		// /dev/full takes the open and refuses what comes next: the write
		// (ENOSPC), or under MetadataOnly the ftruncate of a device (EINVAL).
		cause, what := error(syscall.ENOSPC), "ENOSPC"
		if metadataOnly {
			cause, what = syscall.EINVAL, "metadata-only EINVAL"
		}
		for _, p := range append(fivePositions(len(files)), second) {
			name := fmt.Sprintf("%s from /dev/full at file %d", what, p)
			if p == second {
				name = fmt.Sprintf("%s from /dev/full at the second file of a directory run (file %d)", what, p)
			}
			faults = append(faults, fault{name: name, metadataOnly: metadataOnly, arm: func(t *testing.T, v *ShardView, root string) (context.Context, error, int, func(error)) {
				if _, err := os.Stat("/dev/full"); err != nil {
					t.Skipf("no /dev/full here: %v", err)
				}
				f := v.Files[p]
				link := filepath.Join(root, filepath.FromSlash(v.Tree.Path(f.DirID)), f.Name)
				if err := os.MkdirAll(filepath.Dir(link), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.Symlink("/dev/full", link); err != nil {
					t.Fatal(err)
				}
				return context.Background(), cause, p, func(err error) {
					if err != nil && !strings.Contains(err.Error(), f.Name) {
						t.Errorf("the error does not name the file %s: %v", f.Name, err)
					}
				}
			}})
		}
	}
	// cancelledInside puts a FIFO in the place of the file at position p:
	// the writer blocks opening it until this side opens it too, which is
	// how the test knows the writer is inside that file. It cancels then,
	// and only then lets the writer finish.
	cancelledInside := func(p int) func(t *testing.T, v *ShardView, root string) (context.Context, error, int, func(error)) {
		return func(t *testing.T, v *ShardView, root string) (context.Context, error, int, func(error)) {
			v.Files[p].Size = 1 << 20
			f := v.Files[p]
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
			return ctx, context.Canceled, p, func(error) {
				if err := <-drained; err != nil {
					t.Errorf("draining the FIFO: %v", err)
				}
			}
		}
	}
	faults = append(faults,
		fault{name: "cancelled inside the largest file", arm: cancelledInside(largest)},
		fault{name: "cancelled in the middle of a directory run", arm: cancelledInside(middle)},
		fault{name: "cancelled before the first file", arm: func(t *testing.T, v *ShardView, root string) (context.Context, error, int, func(error)) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, context.Canceled, -1, func(error) {
				if n := regularFiles(t, root); n != 0 {
					t.Errorf("%d files written under a context cancelled from the start", n)
				}
			}
		}},
	)

	openDescriptors(t) // the first listing may start the runtime's poller
	for _, w := range vfsWriters(t) {
		for _, j := range []int{1, 4} {
			for _, f := range faults {
				t.Run(fmt.Sprintf("%s j=%d %s", w.name, j, f.name), func(t *testing.T) {
					root := t.TempDir()
					v := withFiles(pristine)
					baseline, fds := runtime.NumGoroutine(), openDescriptors(t)
					ctx, cause, left, after := f.arm(t, v, root)
					gotResult, err := w.run(ctx, v, root, j, f.metadataOnly)
					after(err)
					if !errors.Is(err, cause) {
						t.Fatalf("got error %v, want %v", err, cause)
					}
					if gotResult {
						t.Error("a failed execution returned a result")
					}
					if j == 1 && left >= 0 {
						if n := regularFiles(t, root); n != left {
							t.Errorf("%d regular files left, want %d: the files behind the fault must not be started", n, left)
						}
					}
					checkGoroutines(t, baseline)
					if n := openDescriptors(t); n != fds {
						t.Errorf("%d descriptors open after the run, %d before it", n, fds)
					}
				})
			}
		}
	}
}

// TestJournaledFailureMidBatch: a write failing inside batch b leaves a
// journal covering exactly the b sealed batches before it — nothing of the
// failed batch, although some of its files are on disk — and a second
// execution resumes from there to the pinned manifest. Batches are runs of
// the shard's directory order.
func TestJournaledFailureMidBatch(t *testing.T) {
	const batch = 8
	pristine := goldenShard(t)
	for _, j := range []int{1, 4} {
		for _, b := range []int{0, 5, len(pristine.Files) / batch} {
			t.Run(fmt.Sprintf("j=%d batch %d", j, b), func(t *testing.T) {
				root, journal := t.TempDir(), filepath.Join(t.TempDir(), "journal")
				opts := WorkerOptions{Parallelism: j, JournalPath: journal, BatchFiles: batch}
				spoiled := withFiles(pristine)
				// The batch's last file, so the rest of it is written before
				// the failure at Parallelism 1.
				lo, hi := b*batch, min((b+1)*batch, len(pristine.Files))
				spoiled.Files[hi-1].Name = strings.Repeat("x", 300)

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
