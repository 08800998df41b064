package imgfmt_test

import (
	"archive/tar"
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"impressions/internal/content"
	"impressions/internal/fsimage"
	"impressions/internal/imgfmt"
	"impressions/internal/namespace"
	"impressions/internal/stats"
)

// The tests of the parallel body engine behind the archive sinks: the bytes
// and the OnDigest sequence must not depend on Options.Parallelism, and
// every failure must come back from AddFile/Close with the workers gone.

// The engine's geometry (internal/fsimage/body.go: bodyChunkSize,
// bodyRunFiles), which edgeImage aims its sizes at. fsimage's
// TestEdgeImageMatchesGeometry fails when body.go moves away from this copy.
const (
	bodyChunk    = 128 << 10
	bodyRunFiles = 256
)

// parallelisms are the worker counts every identity test runs at: one
// worker, the benchmark's two, and more workers than this image has large
// files (so several idle, and in order several wait for their turn).
var parallelisms = []int{1, 2, 8}

// imageBuilder appends files to an image; image spreads them over the
// tree, directory-major as the canonical order is.
type imageBuilder struct {
	img  *fsimage.Image
	exts []string
}

func newImageBuilder(seed int64) *imageBuilder {
	tree := namespace.GenerateTree(stats.NewRNG(seed), 30, namespace.ShapeGenerative)
	img := fsimage.New(tree)
	img.Spec.Seed = seed
	return &imageBuilder{img: img, exts: []string{"txt", "jpg", "dll", "", "html", "pdf", "mp3"}}
}

func (b *imageBuilder) add(size int64) { b.addExt(b.exts[len(b.img.Files)%len(b.exts)], size) }

func (b *imageBuilder) addExt(ext string, size int64) {
	b.img.AddFile(fsimage.MakeFileName(len(b.img.Files), ext), ext, size, 0, 1)
}

// image returns the image, its files dealt over the tree's directories in
// order.
func (b *imageBuilder) image() *fsimage.Image {
	tree := b.img.Tree
	for i := range b.img.Files {
		f := &b.img.Files[i]
		f.DirID = i * tree.Len() / len(b.img.Files)
		f.Depth = tree.Dirs[f.DirID].Depth + 1
		tree.Dirs[f.DirID].FileCount++
		tree.Dirs[f.DirID].Bytes += f.Size
	}
	return b.img
}

// tiny adds n files of 0 to 699 bytes.
func (b *imageBuilder) tiny(n int) {
	for k := 0; k < n; k++ {
		b.add(int64(k * 37 % 700))
	}
}

// edgeImage aims a size mix at the engine's edges: empty and one-byte
// files, exactly one chunk and one byte over, exactly four chunks and one
// byte over, a run cut by its file count, a run that exactly fills its chunk
// with an empty file behind it, a file of more chunks than eight workers
// hold, and runs of several hundred tiny files in between. Runs are cut by
// what a file takes in the image, which for tar is a 512-byte header more
// (and padding), so the chunk edges come twice: as content sizes, where
// squashfs has them, and a header short of that, where tar does.
func edgeImage() *fsimage.Image {
	const chunk = bodyChunk
	b := newImageBuilder(7)
	for _, size := range []int64{0, 1, chunk, chunk + 1} {
		b.add(size)
	}
	b.tiny(300)
	b.add(4 * chunk)
	b.add(4*chunk + 1)
	for k := 0; k < 2*bodyRunFiles+5; k++ {
		b.add(0)
	}
	b.add(chunk / 2)
	b.add(chunk / 2)
	b.add(0)
	for _, size := range []int64{chunk - 512, chunk - 511, chunk/2 - 512, chunk/2 - 512, 0} {
		b.add(size)
	}
	b.add(int64(slices.Max(parallelisms))*4*chunk + 3)
	b.tiny(400)
	b.add(chunk - 1)
	b.add(2)
	return b.image()
}

// longNameImage aims entry names at the tar header's edges: a chain of
// directories with 30-byte names, so that directory and file paths cross
// 100 bytes (the name field; longer paths split into ustar's prefix), 155
// (the prefix field; the split moves to an earlier slash) and 256 (no
// split left: PAX), a directory with a non-ASCII name (PAX at any length,
// for itself and everything under it), and a file whose last component
// alone is over 100 bytes (unsplittable: PAX although the path is short).
// Every directory holds an empty file and one with content.
func longNameImage() *fsimage.Image {
	tree := namespace.GenerateTree(nil, 1, namespace.ShapeFlat)
	img := fsimage.New(tree)
	img.Spec.Seed = 3
	addDir := func(parent int, name string) int {
		id := tree.AddDir(parent)
		tree.Dirs[id].Name = name
		return id
	}
	addFile := func(dir int, ext string, size int64) {
		img.AddFile(fsimage.MakeFileName(len(img.Files), ext), ext, size, dir, tree.Dirs[dir].Depth+1)
		tree.Dirs[dir].FileCount++
		tree.Dirs[dir].Bytes += size
	}
	dirs := []int{0}
	for depth, parent := 0, 0; depth < 10; depth++ {
		parent = addDir(parent, fmt.Sprintf("level%02d-%s", depth, strings.Repeat("x", 22)))
		dirs = append(dirs, parent)
	}
	accented := addDir(0, "données")
	dirs = append(dirs, accented, addDir(accented, "plain"))
	// Directories are numbered in the order dirs lists them.
	for i, dir := range dirs {
		addFile(dir, "txt", 0)
		addFile(dir, "jpg", int64(300+i*211))
		if i == 1 {
			addFile(dir, strings.Repeat("e", 110), 77)
		}
	}
	return img
}

// referenceTar is the oracle: the archive written the way the sink wrote it
// before there was an engine — one goroutine, archive/tar, each generator
// straight into the tar writer with a hash teed off. It returns the bytes
// and every file's digest in stream order.
func referenceTar(t *testing.T, img *fsimage.Image) ([]byte, []string) {
	t.Helper()
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	header := func(hdr tar.Header) {
		hdr.ModTime = imgfmt.DefaultModTime
		if err := tw.WriteHeader(&hdr); err != nil {
			t.Fatalf("reference header %q: %v", hdr.Name, err)
		}
	}
	for id := 1; id < img.Tree.Len(); id++ {
		header(tar.Header{Typeflag: tar.TypeDir, Name: img.Tree.Path(id) + "/", Mode: 0o755})
	}
	registry := content.NewRegistry(content.KindDefault)
	streams := fsimage.NewContentStreams(img.Spec.Seed)
	sums := make([]string, 0, len(img.Files))
	for _, f := range img.Files {
		name := f.Name
		if dir := img.Tree.Path(f.DirID); dir != "" {
			name = dir + "/" + f.Name
		}
		header(tar.Header{Typeflag: tar.TypeReg, Name: name, Size: f.Size, Mode: 0o644})
		h := sha256.New()
		if err := registry.ForExtension(f.Ext).Generate(io.MultiWriter(tw, h), f.Size, streams.File(f.ID)); err != nil {
			t.Fatalf("reference content of file %d: %v", f.ID, err)
		}
		sums = append(sums, hex.EncodeToString(h.Sum(nil)))
	}
	if err := tw.Close(); err != nil {
		t.Fatalf("reference trailer: %v", err)
	}
	return buf.Bytes(), sums
}

// digestLog records OnDigest calls, to be checked against the stream order
// Options.OnDigest promises. It is deliberately unsynchronized: the calls
// come from the goroutine driving the sink, or -race says otherwise. A nil
// log leaves OnDigest unset.
type digestLog struct {
	ids  []int
	sums []string
}

func (l *digestLog) hook() func(fsimage.File, string) {
	if l == nil {
		return nil
	}
	return func(f fsimage.File, sum string) {
		l.ids = append(l.ids, f.ID)
		l.sums = append(l.sums, sum)
	}
}

// check compares the log with the digests of files, all of them (or with
// prefix, as many as were reported before a failure).
func (l *digestLog) check(t *testing.T, label string, files []fsimage.File, want []string, prefix bool) {
	t.Helper()
	if l == nil {
		return
	}
	if !prefix && len(l.ids) != len(files) || len(l.ids) > len(files) {
		t.Errorf("%s: OnDigest called %d times for %d files", label, len(l.ids), len(files))
		return
	}
	for i, id := range l.ids {
		if id != files[i].ID || l.sums[i] != want[id] {
			t.Errorf("%s: OnDigest call %d reported file %d %s, want file %d %s", label, i, id, l.sums[i], files[i].ID, want[files[i].ID])
			return
		}
	}
}

func variant(j int, l *digestLog) string {
	return fmt.Sprintf("j=%d OnDigest=%v", j, l != nil)
}

// eachVariant runs fn at every parallelism, with and without OnDigest.
func eachVariant(fn func(j int, log *digestLog)) {
	for _, j := range parallelisms {
		fn(j, nil)
		fn(j, &digestLog{})
	}
}

// backends are the three kinds of destination the engine writes: a file,
// which it writes at offsets; a writer without WriteAt, which it writes in
// order; and io.Discard, which keeps nothing, so that only the digests show.
var backends = []string{"file", "in order", "discard"}

// newDestination returns a destination of the backend and what it holds
// once written (nil for io.Discard).
func newDestination(t *testing.T, backend string) (io.Writer, func() []byte) {
	t.Helper()
	switch backend {
	case "file":
		f, err := os.Create(filepath.Join(t.TempDir(), "image"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f, func() []byte {
			data, err := os.ReadFile(f.Name())
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
	case "in order":
		b := &seekBuffer{}
		return b, func() []byte { return b.data }
	}
	return io.Discard, func() []byte { return nil }
}

// seekBuffer is an in-memory io.WriteSeeker without WriteAt: the engine
// writes it in order, as it writes a pipe, and a squashfs sink seeks back in
// it to patch the superblock.
type seekBuffer struct {
	data []byte
	off  int
}

func (b *seekBuffer) Write(p []byte) (int, error) {
	if end := b.off + len(p); end > len(b.data) {
		b.data = append(b.data, make([]byte, end-len(b.data))...)
	}
	b.off += copy(b.data[b.off:], p)
	return len(p), nil
}

func (b *seekBuffer) Seek(off int64, whence int) (int64, error) {
	if whence == io.SeekCurrent {
		off += int64(b.off)
	}
	b.off = int(off)
	return off, nil
}

// digestOptions are the options of one variant: with a log, OnDigest and a
// fold, whose digest must come to want once the sink is closed.
func digestOptions(t *testing.T, img *fsimage.Image, j int, log *digestLog) (imgfmt.Options, func(label, want string)) {
	opts := imgfmt.Options{Seed: img.Spec.Seed, Parallelism: j, OnDigest: log.hook()}
	if log == nil {
		return opts, func(string, string) {}
	}
	opts.Fold = fsimage.NewDigestFold(img.DirCount(), img.FileCount(), img.TotalBytes())
	return opts, func(label, want string) {
		if got, err := opts.Fold.Sum(); err != nil || got != want {
			t.Errorf("%s: folded digest %s (%v), want %s", label, got, err, want)
		}
	}
}

// identityImages are the images the referenceTar identity tests run on: the
// engine's size edges and the header builder's name edges.
var identityImages = map[string]func() *fsimage.Image{"edgeImage": edgeImage, "longNameImage": longNameImage}

// reference is what every sink must make of img: the serial tar, the
// files' digests, and the canonical image digest.
func reference(t *testing.T, img *fsimage.Image) ([]byte, []string, string) {
	t.Helper()
	want, sums := referenceTar(t, img)
	digest, err := fsimage.CombineDigest(img, sums)
	if err != nil {
		t.Fatalf("CombineDigest: %v", err)
	}
	return want, sums, digest
}

func TestTarSinkIdenticalAtAnyParallelism(t *testing.T) {
	for name, build := range identityImages {
		t.Run(name, func(t *testing.T) { testTarSinkIdentical(t, build()) })
	}
}

func testTarSinkIdentical(t *testing.T, img *fsimage.Image) {
	want, sums, digest := reference(t, img)
	for _, backend := range backends {
		eachVariant(func(j int, log *digestLog) {
			label := backend + " " + variant(j, log)
			w, written := newDestination(t, backend)
			opts, checkFold := digestOptions(t, img, j, log)
			sink := imgfmt.NewTarSink(w, opts)
			if err := img.StreamRecords(sink); err != nil {
				t.Fatalf("%s: StreamRecords: %v", label, err)
			}
			if err := sink.Close(); err != nil {
				t.Fatalf("%s: Close: %v", label, err)
			}
			if got := written(); got != nil && !bytes.Equal(got, want) {
				t.Errorf("%s: tar (%d bytes) differs from the serial reference (%d bytes)", label, len(got), len(want))
			}
			if sink.Written() != img.TotalBytes() {
				t.Errorf("%s: Written() = %d, image holds %d", label, sink.Written(), img.TotalBytes())
			}
			log.check(t, label, img.Files, sums, false)
			checkFold(label, digest)
		})
	}
}

func TestSegmentsIdenticalAtAnyParallelism(t *testing.T) {
	for name, build := range identityImages {
		t.Run(name, func(t *testing.T) { testSegmentsIdentical(t, build()) })
	}
}

func testSegmentsIdentical(t *testing.T, img *fsimage.Image) {
	want, sums := referenceTar(t, img)
	const shards = 3
	sh := shardImage(t, img, shards)
	var first [shards][]byte
	for _, backend := range backends {
		eachVariant(func(j int, log *digestLog) {
			label := backend + " " + variant(j, log)
			segments := make([][]byte, shards)
			for s := 0; s < shards; s++ {
				label := fmt.Sprintf("%s shard %d", label, s)
				if log != nil {
					log = &digestLog{} // each segment reports its own files
				}
				w, written := newDestination(t, backend)
				opts := imgfmt.Options{Seed: img.Spec.Seed, Parallelism: j, OnDigest: log.hook()}
				n, err := imgfmt.WriteSegment(w, img.Tree, sh.part.Shards[s], sh.files[s], opts)
				if err != nil {
					t.Fatalf("%s: WriteSegment: %v", label, err)
				}
				var bytesWant int64
				for _, f := range sh.files[s] {
					bytesWant += f.Size
				}
				if n != bytesWant {
					t.Errorf("%s: WriteSegment reported %d content bytes, shard holds %d", label, n, bytesWant)
				}
				log.check(t, label, sh.files[s], sums, false)
				if segments[s] = written(); segments[s] == nil {
					continue
				}
				if first[s] == nil {
					first[s] = segments[s]
				} else if !bytes.Equal(segments[s], first[s]) {
					t.Errorf("%s: segment differs from the first variant's", label)
				}
			}
			if backend == "discard" {
				return
			}
			var out bytes.Buffer
			if err := sh.stitch(&out, segments, imgfmt.Options{Seed: img.Spec.Seed}); err != nil {
				t.Fatalf("%s: stitch: %v", label, err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("%s: stitched tar differs from the serial reference", label)
			}
		})
	}
}

func TestSquashfsIdenticalAtAnyParallelism(t *testing.T) {
	for name, build := range identityImages {
		t.Run(name, func(t *testing.T) { testSquashfsIdentical(t, build()) })
	}
}

func testSquashfsIdentical(t *testing.T, img *fsimage.Image) {
	_, sums, digest := reference(t, img)
	var first []byte
	// A squashfs sink needs a WriteSeeker, which io.Discard is not.
	for _, backend := range backends[:2] {
		eachVariant(func(j int, log *digestLog) {
			label := backend + " " + variant(j, log)
			w, written := newDestination(t, backend)
			opts, checkFold := digestOptions(t, img, j, log)
			sink, err := imgfmt.NewSquashfsSink(w.(io.WriteSeeker), opts)
			if err != nil {
				t.Fatalf("%s: NewSquashfsSink: %v", label, err)
			}
			if err := img.StreamRecords(sink); err != nil {
				t.Fatalf("%s: StreamRecords: %v", label, err)
			}
			if err := sink.Close(); err != nil {
				t.Fatalf("%s: Close: %v", label, err)
			}
			log.check(t, label, img.Files, sums, false)
			checkFold(label, digest)
			data := written()
			if first == nil {
				first = data
				// The first variant is also read back: the data area must
				// hold every file where the inode table says, with the
				// reference's bytes.
				dest := t.TempDir()
				if err := imgfmt.ExtractSquashfs(bytes.NewReader(data), dest); err != nil {
					t.Fatalf("ExtractSquashfs: %v", err)
				}
				if got, err := fsimage.HashTree(dest); err != nil || got != digest {
					t.Errorf("extracted squashfs tree walks to %s (%v), the reference's digest is %s", got, err, digest)
				}
			} else if !bytes.Equal(data, first) {
				t.Errorf("%s: squashfs image differs from the first variant's", label)
			}
		})
	}
}

// recorder is an io.WriterAt that keeps every write, to show that the
// engine writes each byte of an image once and misses none. A squashfs sink
// patches its superblock through Seek and Write, which patch takes.
type recorder struct {
	mu     sync.Mutex
	writes []recorded
	patch  seekBuffer
}

type recorded struct {
	off  int64
	data []byte
}

func (r *recorder) WriteAt(p []byte, off int64) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.writes = append(r.writes, recorded{off, slices.Clone(p)})
	return len(p), nil
}

func (r *recorder) Write(p []byte) (int, error)               { return r.patch.Write(p) }
func (r *recorder) Seek(off int64, whence int) (int64, error) { return r.patch.Seek(off, whence) }

// image fails unless the writes tile [0, end) exactly once, and returns
// the bytes they make, patched.
func (r *recorder) image(t *testing.T, label string) []byte {
	t.Helper()
	slices.SortFunc(r.writes, func(a, b recorded) int { return cmp.Compare(a.off, b.off) })
	var data []byte
	for _, w := range r.writes {
		if w.off != int64(len(data)) {
			t.Fatalf("%s: a write of %d bytes at offset %d follows %d bytes written", label, len(w.data), w.off, len(data))
		}
		data = append(data, w.data...)
	}
	copy(data, r.patch.data)
	return data
}

// TestWritesTileTheImage: written at offsets by eight workers, each byte of
// a tar (PAX entries included), a segment and a squashfs image is written
// exactly once, and the bytes are the reference's.
func TestWritesTileTheImage(t *testing.T) {
	for name, build := range identityImages {
		img := build()
		want, _ := referenceTar(t, img)
		reference := map[string][]byte{
			"tar":      want,
			"segment":  want[:len(want)-2*512], // no end-of-archive blocks
			"squashfs": squashfsBytes(t, img),
		}
		for _, kind := range sinkKinds {
			label := name + " " + kind.name
			rec := &recorder{}
			if err := kind.write(rec, img, imgfmt.Options{Seed: img.Spec.Seed, Parallelism: slices.Max(parallelisms)}); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !bytes.Equal(rec.image(t, label), reference[kind.name]) {
				t.Errorf("%s: the bytes written differ from the reference's", label)
			}
		}
	}
}

// TestDigestFoldMatchesCombineDigest: the digest the tar and squashfs sinks
// fold during the write — the directories' lines from their trees, the
// files' from their workers — equals the one CombineDigest folds from a
// retained table, for an image with files and one without, and a callback
// already on the options still runs.
func TestDigestFoldMatchesCombineDigest(t *testing.T) {
	t.Run("sinkTestImage", func(t *testing.T) { testDigestFold(t, sinkTestImage(t, 11)) })
	t.Run("longNameImage", func(t *testing.T) { testDigestFold(t, longNameImage()) })
	t.Run("no files", func(t *testing.T) { testDigestFold(t, newImageBuilder(5).image()) })
}

func testDigestFold(t *testing.T, img *fsimage.Image) {
	_, sums := referenceTar(t, img)
	want, err := fsimage.CombineDigest(img, sums)
	if err != nil {
		t.Fatalf("CombineDigest: %v", err)
	}
	for _, kind := range []string{"tar", "squashfs"} {
		log := &digestLog{}
		fold := fsimage.NewDigestFold(img.DirCount(), img.FileCount(), img.TotalBytes())
		opts := imgfmt.Options{Seed: img.Spec.Seed, Parallelism: 2, OnDigest: log.hook(), Fold: fold}
		var sink interface {
			fsimage.RecordSink
			Close() error
		} = imgfmt.NewTarSink(io.Discard, opts)
		if kind == "squashfs" {
			if sink, err = imgfmt.NewSquashfsSink(&limitedWriter{limit: -1}, opts); err != nil {
				t.Fatalf("NewSquashfsSink: %v", err)
			}
		}
		if err := img.StreamRecords(sink); err != nil {
			t.Fatalf("%s: StreamRecords: %v", kind, err)
		}
		if _, err := fold.Sum(); err == nil && img.FileCount() > 0 {
			t.Errorf("%s: Sum before Close succeeded with files still queued", kind)
		}
		if err := sink.Close(); err != nil {
			t.Fatalf("%s: Close: %v", kind, err)
		}
		got, err := fold.Sum()
		if err != nil || got != want {
			t.Errorf("%s: folded digest %s (%v), CombineDigest %s", kind, got, err, want)
		}
		log.check(t, kind+" chained OnDigest", img.Files, sums, false)
	}
}

// Failure paths. Each case drives a sink until something fails and then
// abandons it, as every caller in the repository does: no Close. The error
// must keep its identity through the sink's wrapping, and the workers must
// be gone when it is returned.

var errDiskFull = errors.New("no space left on device")

// limitedWriter counts what it accepts and, with limit set, accepts that
// many bytes. What happens then is the case under test: fail with err,
// short-write without an error (err nil), or call trip once and go on
// accepting (trip set).
type limitedWriter struct {
	n     int64
	limit int64 // negative: none
	err   error
	trip  func()
}

func (w *limitedWriter) Write(p []byte) (int, error) {
	room := w.limit - w.n
	if w.limit < 0 || int64(len(p)) <= room {
		w.n += int64(len(p))
		return len(p), nil
	}
	if w.trip != nil {
		w.trip()
		w.limit = -1
		return w.Write(p)
	}
	w.n += room
	return int(room), w.err
}

func (w *limitedWriter) Seek(int64, int) (int64, error) { return 0, nil }

// limitedAt is a limitedWriter the engine writes at offsets, as it writes a
// file: a write that reaches past offset limit gets that far and then fails
// with err, or comes up short without one (or, with trip set, calls trip
// once and goes on accepting).
type limitedAt struct {
	mu sync.Mutex
	limitedWriter
}

func (w *limitedAt) WriteAt(p []byte, off int64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.limit < 0 || off+int64(len(p)) <= w.limit {
		w.n += int64(len(p))
		return len(p), nil
	}
	if w.trip != nil {
		w.trip()
		w.limit = -1
		w.n += int64(len(p))
		return len(p), nil
	}
	room := max(w.limit-off, 0)
	w.n += room
	return int(room), w.err
}

// limited returns w as the engine writes it at offsets (at) or in order.
func limited(w limitedWriter, at bool) io.WriteSeeker {
	if at {
		return &limitedAt{limitedWriter: w}
	}
	return &w
}

func order(at bool) string { return map[bool]string{false: "in order", true: "at offsets"}[at] }

// sinkKind is a writer driven to the end of the stream (Close included)
// unless something fails first.
type sinkKind struct {
	name  string
	write func(w io.WriteSeeker, img *fsimage.Image, opts imgfmt.Options) error
}

// sinkKinds are the three archive writers.
var sinkKinds = []sinkKind{
	{"tar", func(w io.WriteSeeker, img *fsimage.Image, opts imgfmt.Options) error {
		sink := imgfmt.NewTarSink(w, opts)
		if err := img.StreamRecords(sink); err != nil {
			return err
		}
		return sink.Close()
	}},
	{"segment", func(w io.WriteSeeker, img *fsimage.Image, opts imgfmt.Options) error {
		dirs := make([]int, img.Tree.Len())
		for i := range dirs {
			dirs[i] = i
		}
		_, err := imgfmt.WriteSegment(w, img.Tree, dirs, img.Files, opts)
		return err
	}},
	{"squashfs", func(w io.WriteSeeker, img *fsimage.Image, opts imgfmt.Options) error {
		sink, err := imgfmt.NewSquashfsSink(w, opts)
		if err != nil {
			return err
		}
		if err := img.StreamRecords(sink); err != nil {
			return err
		}
		return sink.Close()
	}},
}

// TestSinksWriteFromTheWritersOffset: a destination that can seek and is
// not at offset 0, written at offsets or in order, gets each sink's image
// from where it stands, the bytes before it untouched and a squashfs
// superblock patched at the image's start, not at the writer's.
func TestSinksWriteFromTheWritersOffset(t *testing.T) {
	img := edgeImage()
	lead := bytes.Repeat([]byte{0xA5}, 1000)
	for _, kind := range sinkKinds {
		var want []byte
		for _, backend := range backends[:2] {
			label := kind.name + " " + backend
			w, written := newDestination(t, backend)
			if _, err := w.Write(lead); err != nil {
				t.Fatal(err)
			}
			if err := kind.write(w.(io.WriteSeeker), img, imgfmt.Options{Seed: img.Spec.Seed, Parallelism: 2}); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			data := written()
			if !bytes.Equal(data[:len(lead)], lead) {
				t.Errorf("%s: the bytes before the writer's offset were overwritten", label)
			}
			if want == nil {
				b := &seekBuffer{}
				if err := kind.write(b, img, imgfmt.Options{Seed: img.Spec.Seed}); err != nil {
					t.Fatalf("%s at offset 0: %v", kind.name, err)
				}
				want = b.data
			}
			if !bytes.Equal(data[len(lead):], want) {
				t.Errorf("%s: the image written from offset %d differs from the one written at 0", label, len(lead))
			}
		}
	}
}

// TestSquashfsRefusesAPipe: a squashfs sink cannot patch its superblock on
// a destination that cannot seek, so its constructor refuses a pipe before
// the reader gets a byte.
func TestSquashfsRefusesAPipe(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := make(chan int64, 1)
	go func() {
		n, _ := io.Copy(io.Discard, r)
		got <- n
	}()
	img := edgeImage()
	sink, err := imgfmt.NewSquashfsSink(w, imgfmt.Options{Seed: img.Spec.Seed, Parallelism: 2})
	w.Close()
	if err == nil {
		sink.Close()
		t.Fatal("NewSquashfsSink onto a pipe: no error")
	}
	if n := <-got; n != 0 {
		t.Errorf("the pipe's reader got %d bytes, want 0", n)
	}
}

// outputSize is how many bytes the kind writes for img when nothing fails.
func outputSize(t *testing.T, write func(io.WriteSeeker, *fsimage.Image, imgfmt.Options) error, img *fsimage.Image) int64 {
	t.Helper()
	w := &limitedWriter{limit: -1}
	if err := write(w, img, imgfmt.Options{Seed: img.Spec.Seed}); err != nil {
		t.Fatalf("unlimited write: %v", err)
	}
	return w.n
}

// expectGoroutines waits for the goroutine count to come back to baseline.
// The sinks join their workers before they return an error, so this only
// ever waits for a worker between its wg.Done and its exit.
func expectGoroutines(t *testing.T, label string, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, %d before the sink was created:\n%s", label, runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// failSink runs one failure case and checks what every case must show: the
// wanted error, no OnDigest call that is not a prefix of the true sequence,
// and no worker left behind — without a Close.
func failSink(t *testing.T, label string, img *fsimage.Image, sums []string, want error, run func(log *digestLog) error) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	log := &digestLog{}
	err := run(log)
	if !errors.Is(err, want) {
		t.Errorf("%s: got error %v, want one wrapping %v", label, err, want)
	}
	expectGoroutines(t, label, baseline)
	log.check(t, label, img.Files, sums, true)
}

func TestSinksSurfaceWriterFailures(t *testing.T) {
	img := edgeImage()
	_, sums := referenceTar(t, img)
	for _, kind := range sinkKinds {
		total := outputSize(t, kind.write, img)
		// Before the first byte, inside the first entries, inside the first
		// run of tiny files, inside the largest file, and in what is written
		// last (the tar trailer, the squashfs tables and padding).
		limits := []int64{0, 700, total / 20, total * 3 / 4, total - 100}
		for _, at := range []bool{false, true} {
			for _, j := range []int{1, 4} {
				for _, limit := range limits {
					for _, want := range []error{errDiskFull, io.ErrShortWrite} {
						label := fmt.Sprintf("%s %s j=%d fails after %d bytes (%v)", kind.name, order(at), j, limit, want)
						failSink(t, label, img, sums, want, func(log *digestLog) error {
							w := limitedWriter{limit: limit}
							if want == errDiskFull {
								w.err = errDiskFull
							}
							return kind.write(limited(w, at), img, imgfmt.Options{Seed: img.Spec.Seed, Parallelism: j, OnDigest: log.hook()})
						})
					}
				}
			}
		}
	}
}

func TestSinksSurfaceCancellationMidFile(t *testing.T) {
	img := edgeImage()
	_, sums := referenceTar(t, img)
	for _, kind := range sinkKinds {
		total := outputSize(t, kind.write, img)
		for _, at := range []bool{false, true} {
			for _, j := range []int{1, 4} {
				label := fmt.Sprintf("%s %s j=%d cancelled inside the largest file", kind.name, order(at), j)
				failSink(t, label, img, sums, context.Canceled, func(log *digestLog) error {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					w := limited(limitedWriter{limit: total * 3 / 4, trip: cancel}, at)
					return kind.write(w, img, imgfmt.Options{Seed: img.Spec.Seed, Parallelism: j, Context: ctx, OnDigest: log.hook()})
				})
			}
		}
	}
}

var errGenerator = errors.New("generator gave up")

// brokenGenerator writes good of the requested bytes and then fails with
// err, or (err nil) returns as if it were done; with over it writes one
// byte more than was asked for.
type brokenGenerator struct {
	good int64
	err  error
	over bool
}

func (g brokenGenerator) Generate(w io.Writer, size int64, rng *stats.RNG) error {
	if err := (content.BinaryGenerator{}).Generate(w, min(size, g.good), rng); err != nil {
		return err
	}
	if g.over {
		if _, err := w.Write([]byte{0}); err != nil {
			return err
		}
	}
	return g.err
}

func (brokenGenerator) Name() string { return "broken" }

func TestSinksSurfaceGeneratorFailures(t *testing.T) {
	const budget = 4 * bodyChunk
	// The broken file sits behind enough healthy ones for the workers to be
	// busy, once as a tiny file inside a run and once as a streamed file
	// that fails long after its first chunks were written.
	for _, broken := range []struct {
		name string
		size int64
		gen  brokenGenerator
	}{
		{"a tiny file fails", 500, brokenGenerator{good: 100, err: errGenerator}},
		{"a streamed file fails", 3 * budget, brokenGenerator{good: 2 * budget, err: errGenerator}},
		{"a tiny file comes up short", 500, brokenGenerator{good: 499}},
		{"a streamed file comes up short", 3 * budget, brokenGenerator{good: 2*budget + 1}},
		{"a tiny file runs over", 500, brokenGenerator{good: 500, over: true}},
	} {
		b := newImageBuilder(11)
		b.tiny(600)
		b.add(budget + 5)
		b.tiny(50)
		b.addExt("broken", broken.size)
		b.tiny(600)
		img := b.image()
		registry := content.NewRegistry(content.KindDefault)
		registry.Register(broken.gen, "broken")
		// The VFS writer, the engine's directory destination, beside the
		// archive sinks: it ignores w.
		dir := sinkKind{"dir", func(_ io.WriteSeeker, img *fsimage.Image, opts imgfmt.Options) error {
			sink := fsimage.NewMaterializeSink(t.TempDir(), img.Tree, opts)
			if err := img.StreamRecords(sink); err != nil {
				return err
			}
			return sink.Close()
		}}
		for _, kind := range append(sinkKinds[:len(sinkKinds):len(sinkKinds)], dir) {
			for _, j := range []int{1, 4} {
				label := fmt.Sprintf("%s j=%d: %s", kind.name, j, broken.name)
				baseline := runtime.NumGoroutine()
				err := kind.write(&limitedWriter{limit: -1}, img, imgfmt.Options{
					Registry: registry, Seed: 11, Parallelism: j, OnDigest: func(fsimage.File, string) {},
				})
				if broken.gen.err != nil && !errors.Is(err, errGenerator) || err == nil {
					t.Errorf("%s: got error %v", label, err)
				}
				expectGoroutines(t, label, baseline)
			}
		}
	}
}

// TestSinkRejectsBadRecordWithWorkersRunning: an error the sink raises
// itself (here a file ID out of sequence) after content workers have
// started stops them too.
func TestSinkRejectsBadRecordWithWorkersRunning(t *testing.T) {
	img := edgeImage()
	baseline := runtime.NumGoroutine()
	sink := imgfmt.NewTarSink(io.Discard, imgfmt.Options{Seed: img.Spec.Seed, Parallelism: 4})
	for id := 0; id < img.Tree.Len(); id++ {
		d := img.Tree.Dirs[id]
		if err := sink.AddDir(fsimage.DirRecord{ID: d.ID, Parent: d.Parent, Name: d.Name}); err != nil {
			t.Fatalf("AddDir: %v", err)
		}
	}
	for _, f := range img.Files[:400] {
		if err := sink.AddFile(f); err != nil {
			t.Fatalf("AddFile: %v", err)
		}
	}
	if runtime.NumGoroutine() == baseline {
		t.Fatal("no workers were running: the test would show nothing")
	}
	if err := sink.AddFile(img.Files[500]); err == nil {
		t.Fatal("file 500 accepted where 400 was due")
	}
	expectGoroutines(t, "out-of-sequence file", baseline)
	if err := sink.Close(); err == nil {
		t.Error("Close of a failed sink succeeded")
	}
}
