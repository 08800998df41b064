package imgfmt_test

import (
	"archive/tar"
	"bytes"
	"errors"
	"io"
	"runtime"
	"slices"
	"testing"

	"impressions/internal/fsimage"
	"impressions/internal/imgfmt"
)

// stitchPlan is the small plan FuzzStitcher damages the segments of: three
// shards of a few dozen small files (the entries are what matters here, not
// their size), under names on both header routes.
func stitchPlan() *fsimage.Image {
	b := newImageBuilder(5)
	b.tiny(40)
	b.add(3000)
	b.addExt("données", 10) // a PAX entry in some segment
	return b.img
}

// FuzzStitcher feeds the stitcher three segments that are no longer the
// plan's — mutated, truncated, swapped — and holds it to the decoder
// contract: it reproduces the monolithic archive or fails with an error
// wrapping fsimage.ErrManifestIntegrity (or the tar reader's, from a body
// cut short), and never panics, hangs, or allocates beyond what it was
// given.
//
// The stitcher checks every entry's name, size and type against the plan,
// not its content (content is attested by the manifests' digests, at
// merge), so "reproduces" is: every byte outside the file bodies is the
// monolithic archive's, and every body is the bytes the segment carried.
func FuzzStitcher(f *testing.F) {
	img := stitchPlan()
	const shards = 3
	sh := shardImage(f, img, shards)
	opts := imgfmt.Options{Seed: img.Spec.Seed, Parallelism: 1}
	var valid [shards][]byte
	for s := range valid {
		valid[s] = sh.segment(f, s, opts)
	}
	var mono bytes.Buffer
	sink := imgfmt.NewTarSink(&mono, opts)
	if err := img.StreamRecords(sink); err != nil {
		f.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		f.Fatal(err)
	}
	// structure is the monolithic archive with every file body zeroed.
	structure := maskBodies(f, mono.Bytes())

	f.Add(valid[0], valid[1], valid[2])
	f.Add(valid[1], valid[0], valid[2])                                    // reordered
	f.Add(valid[0], valid[2], valid[1])                                    // reordered
	f.Add(valid[0][:len(valid[0])/2], valid[1], valid[2])                  // truncated mid-entry
	f.Add(valid[0], valid[1][:1024], valid[2])                             // truncated at an entry boundary
	f.Add(valid[0], valid[1], []byte{})                                    // a segment missing
	f.Add(valid[0], valid[1], slices.Concat(valid[2], valid[2]))           // entries beyond the plan
	f.Add(valid[0], valid[1], slices.Concat(valid[2], make([]byte, 1024))) // a trailer where a segment has none
	flipped := bytes.Clone(valid[1])
	flipped[100] ^= 0x40 // inside the first header: the checksum no longer holds
	f.Add(valid[0], flipped, valid[2])

	f.Fuzz(func(t *testing.T, seg0, seg1, seg2 []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var out bytes.Buffer
		err := sh.stitch(&out, [][]byte{seg0, seg1, seg2}, opts)
		runtime.ReadMemStats(&after)
		// Headers, buffers and the output itself: a few times the input and
		// a fixed allowance, whatever sizes the damaged headers claim.
		given := uint64(len(seg0) + len(seg1) + len(seg2))
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 8<<20+16*given {
			t.Errorf("stitching %d bytes of segments allocated %d", given, grown)
		}
		if err != nil {
			// A body that ends early surfaces from the copy as the tar
			// reader's own error; everything else is the stitcher's verdict.
			if !errors.Is(err, fsimage.ErrManifestIntegrity) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, tar.ErrHeader) {
				t.Fatalf("stitcher failed with %v: neither ErrManifestIntegrity nor an error of the tar reader", err)
			}
			return
		}
		if got := maskBodies(t, out.Bytes()); !bytes.Equal(got, structure) {
			t.Fatalf("stitcher accepted the segments and wrote %d bytes that are not the monolithic archive's %d", len(got), len(structure))
		}
	})
}

// maskBodies returns a copy of the archive with every regular file's content
// zeroed, leaving headers, padding and trailer.
func maskBodies(t testing.TB, archive []byte) []byte {
	t.Helper()
	masked := bytes.Clone(archive)
	r := bytes.NewReader(archive)
	tr := tar.NewReader(r)
	for {
		hdr, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return masked
		}
		if err != nil {
			t.Fatalf("reading the archive back: %v", err)
		}
		if hdr.Typeflag != tar.TypeReg {
			continue
		}
		// Next has consumed the header; the reader stands at the body.
		at := len(archive) - r.Len()
		clear(masked[at : at+int(hdr.Size)])
	}
}
