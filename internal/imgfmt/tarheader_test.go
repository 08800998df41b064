package imgfmt

import (
	"archive/tar"
	"bytes"
	"strings"
	"testing"
	"time"
)

// stdlibHeader is the oracle of the header tests: the entry's header as
// archive/tar writes it when handed every field, the way tarWriter did
// before there was a builder.
func stdlibHeader(name string, size int64, dir bool) ([]byte, error) {
	hdr := tar.Header{Typeflag: tar.TypeReg, Name: name, Size: size, Mode: 0o644, ModTime: time.Unix(1233878400, 0)}
	if dir {
		hdr.Typeflag, hdr.Mode = tar.TypeDir, 0o755
	}
	var buf bytes.Buffer
	err := tar.NewWriter(&buf).WriteHeader(&hdr)
	return buf.Bytes(), err
}

// checkHeader compares the builder with the oracle on one entry and returns
// the header.
func checkHeader(t *testing.T, h *tarHeaders, name string, size int64, dir bool) []byte {
	t.Helper()
	tpl := &h.file
	if dir {
		tpl = &h.dir
	}
	// A prefix already in dst must survive: the workers append to scratch
	// they reuse.
	got, err := tpl.append([]byte("kept"), []byte(name), size)
	want, wantErr := stdlibHeader(name, size, dir)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%q size %d dir %v: builder error %v, archive/tar error %v", name, size, dir, err, wantErr)
	}
	if err != nil {
		return nil
	}
	if !bytes.HasPrefix(got, []byte("kept")) {
		t.Fatalf("%q: append overwrote what dst held", name)
	}
	got = got[len("kept"):]
	if !bytes.Equal(got, want) {
		t.Fatalf("%q size %d dir %v: builder wrote %d bytes, archive/tar %d, first difference at %d",
			name, size, dir, len(got), len(want), firstDiff(got, want))
	}
	return got
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// tarPath is a path of total bytes whose last component has last: 'p's cut
// by slashes every 50 bytes, a slash, 'n's.
func tarPath(total, last int) string {
	if last >= total {
		return strings.Repeat("n", total)
	}
	prefix := []byte(strings.Repeat("p", total-last-1))
	for i := 49; i < len(prefix)-1; i += 50 {
		prefix[i] = '/'
	}
	return string(prefix) + "/" + strings.Repeat("n", last)
}

// headerCases are the names at the edges of the ustar fields, each with
// whether archive/tar holds it in one plain block.
var headerCases = []struct {
	label string
	name  string
	ustar bool
}{
	{"short", "dir00001/file00000012.txt", true},
	{"empty", "", true},
	{"one component of 100", tarPath(100, 100), true},
	{"one component of 101", tarPath(101, 101), false},
	{"100 bytes with slashes", tarPath(100, 20), true},
	{"101 bytes: first split", tarPath(101, 20), true},
	{"last component of 100", tarPath(180, 100), true},
	{"last component of 101", tarPath(180, 101), false},
	{"prefix of 155", strings.Repeat("p", 155) + "/" + strings.Repeat("n", 60), true},
	{"prefix of 156", strings.Repeat("p", 156) + "/" + strings.Repeat("n", 60), false},
	{"prefix of 156, an earlier slash", tarPath(217, 60), true},
	{"path of 256", strings.Repeat("p", 155) + "/" + strings.Repeat("n", 100), true},
	{"path of 257", strings.Repeat("p", 155) + "/" + strings.Repeat("n", 101), false},
	{"path of 257 with slashes", tarPath(257, 20), false},
	{"leading slash only", "/" + strings.Repeat("n", 100), false},
	{"non-ASCII component", "données/file00000001.txt", false},
	{"non-ASCII in a long path", tarPath(120, 20) + "é", false},
	{"NUL in the name", "dir\x00/file", false}, // archive/tar refuses it outright
}

func TestTarHeaderMatchesArchiveTar(t *testing.T) {
	sizes := []struct {
		size  int64
		ustar bool
	}{{0, true}, {1, true}, {511, true}, {0o1234567, true}, {1<<33 - 1, true}, {1 << 33, false}, {1 << 40, false}}
	h := newTarHeaders()
	for _, c := range headerCases {
		for _, s := range sizes {
			got := checkHeader(t, h, c.name, s.size, false)
			if plain := len(got) == tarBlock; plain != (c.ustar && s.ustar) {
				t.Errorf("%s, size %d: header of %d bytes, want one block: %v", c.label, s.size, len(got), c.ustar && s.ustar)
			}
		}
		// The same name as a directory's, with its trailing slash; one byte
		// longer, so the edges move by one, which the oracle knows.
		checkHeader(t, h, c.name+"/", 0, true)
	}
	// A trailing slash is not counted against the prefix split, and a
	// regular file must not have one.
	checkHeader(t, h, tarPath(100, 20)+"/", 0, true)
	checkHeader(t, h, strings.Repeat("p", 155)+"/"+strings.Repeat("n", 99)+"/", 0, true)
	if _, err := h.file.append(nil, []byte("dir/"), 0); err == nil {
		t.Error("a regular file named dir/ got a header")
	}
	if _, err := h.file.append(nil, []byte("file"), -1); err == nil {
		t.Error("a file of negative size got a header")
	}
}

// TestTarHeaderTemplatesArePlain: the package's constant owner, permissions
// and timestamp render as one plain ustar block for a file and for a
// directory, which is what lets the builder patch a copy of it.
func TestTarHeaderTemplatesArePlain(t *testing.T) {
	h := newTarHeaders()
	for _, tpl := range []*tarTemplate{&h.file, &h.dir} {
		b, err := tpl.appendStdlib(nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		const magicOff, magic = 257, "ustar\x0000"
		if len(b) != tarBlock || string(b[magicOff:magicOff+len(magic)]) != magic {
			t.Fatalf("archive/tar renders the type %c template in %d bytes, not as one ustar block", tpl.proto.Typeflag, len(b))
		}
		if !bytes.Equal(tpl.block[:], b) {
			t.Fatalf("the type %c template is not archive/tar's rendering", tpl.proto.Typeflag)
		}
	}
}

// TestTarHeaderPatchesWithoutAllocating: a name ustar holds is patched into
// the caller's buffer; only the archive/tar route allocates.
func TestTarHeaderPatchesWithoutAllocating(t *testing.T) {
	h := newTarHeaders()
	buf := make([]byte, 0, 2*tarBlock)
	for _, name := range [][]byte{[]byte("dir00001/file00000012.txt"), []byte(tarPath(217, 60))} {
		if n := testing.AllocsPerRun(100, func() { buf, _ = h.file.append(buf[:0], name, 1234) }); n != 0 {
			t.Errorf("%d-byte name: %v allocations per header", len(name), n)
		}
	}
}

func FuzzTarHeader(f *testing.F) {
	for _, c := range headerCases {
		f.Add(c.name, int64(0), false)
		f.Add(c.name+"/", int64(0), true)
	}
	for _, size := range []int64{0, 1<<33 - 1, 1 << 33, -1} {
		f.Add("dir00001/file00000012.txt", size, false)
		f.Add(tarPath(150, 30), size, false)
	}
	h := newTarHeaders()
	f.Fuzz(func(t *testing.T, name string, size int64, dir bool) {
		checkHeader(t, h, name, size, dir)
	})
}

func BenchmarkTarHeader(b *testing.B) {
	h := newTarHeaders()
	name := []byte("dir00012/dir00345/dir06789/file00123456.html") // tar_small's typical depth
	buf := make([]byte, 0, tarBlock)
	b.Run("template", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf, _ = h.file.append(buf[:0], name, 1146)
		}
	})
	b.Run("archive/tar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf, _ = h.file.appendStdlib(buf[:0], name, 1146)
		}
	})
}
