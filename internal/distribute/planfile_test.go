package distribute

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"impressions/internal/fsimage"
)

// writePlanFiles writes a plan as OpenPlanFile takes it: an index over its
// fragments, which lie next to the index.
func writePlanFiles(tb testing.TB, k int) (index string, ix *FragmentIndex) {
	tb.Helper()
	dir := tb.TempDir()
	plan, frags := fragmentBuffers(tb, PlanRequest{Config: testConfig(), MaxShards: k, ChunkSize: 64})
	ix = plan.FragmentIndex(func(s int) string { return FragmentName("plan.json", s) })
	for s, frag := range frags {
		if err := os.WriteFile(filepath.Join(dir, ix.Fragments[s]), frag, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	index = filepath.Join(dir, "plan.json")
	writeIndex(tb, index, ix)
	return index, ix
}

func writeIndex(tb testing.TB, path string, ix *FragmentIndex) {
	tb.Helper()
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
}

func openPlanFile(t *testing.T, path string) *PlanFile {
	t.Helper()
	pf, err := OpenPlanFile(path)
	if err != nil {
		t.Fatalf("OpenPlanFile(%s): %v", path, err)
	}
	return pf
}

// TestOpenPlanFileShapes: an index and each of its fragments open at their
// paths and give a worker the same shard, and the index gives the merge the
// plan: the digest of the single-process run.
func TestOpenPlanFileShapes(t *testing.T) {
	const k = 3
	index, ix := writePlanFiles(t, k)
	x := openPlanFile(t, index)
	manifests := make([]*Manifest, k)
	for s := 0; s < k; s++ {
		fromIndex, err := x.View(s)
		if err != nil {
			t.Fatalf("index View(%d): %v", s, err)
		}
		f := openPlanFile(t, filepath.Join(filepath.Dir(index), ix.Fragments[s]))
		fromFragment, err := f.View(-1)
		if err != nil {
			t.Fatalf("fragment %d View(-1): %v", s, err)
		}
		if fromIndex.Shard != s || fromFragment.Shard != s || !bytes.Equal(encodeView(t, fromIndex), encodeView(t, fromFragment)) {
			t.Errorf("shard %d from the index is not its fragment's", s)
		}
		if manifests[s], err = executeView(fromIndex, TarTarget(&bytes.Buffer{}), WorkerOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Merge(x.Source(context.Background()), manifests)
	if err == nil {
		err = res.Err()
	}
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if _, digest := singleProcessReference(t, testConfig()); res.Digest != digest {
		t.Errorf("the index merged to %s, the single-process run digests %s", res.Digest, digest)
	}
}

// TestOpenPlanFileRefusals: what a path cannot give is refused with the
// sentinel of whose fault it is. Asking a whole plan for no shard or one it
// does not have, a shard document for another shard, or a shard document
// for the whole plan is the caller's (ErrInvalidSpec). A plan document, the
// single-document shape of earlier builds, is ErrPlanVersion. A file of no
// plan shape, and an index that names another plan than its fragments carry
// or files a fragment under another shard, are damaged artifacts
// (ErrManifestIntegrity), at the worker and at the merge alike.
func TestOpenPlanFileRefusals(t *testing.T) {
	index, ix := writePlanFiles(t, 2)
	dir := filepath.Dir(index)
	fragment := filepath.Join(dir, ix.Fragments[0])
	for name, c := range map[string]struct {
		doc  string
		want error
	}{
		"junk.json":     {`{"chunks": []}`, fsimage.ErrManifestIntegrity},
		"document.json": {`{"header":{"format_version":3},"chunks":[],"trailer":{"chunks":0}}`, fsimage.ErrPlanVersion},
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(c.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenPlanFile(path); !errors.Is(err, c.want) {
			t.Errorf("OpenPlanFile of %s: %v, want %v", name, err, c.want)
		}
	}

	// Indexes that disagree with their fragments, written next to them.
	edited := func(name string, edit func(*FragmentIndex)) string {
		e := *ix
		e.Fragments = append([]string(nil), ix.Fragments...)
		edit(&e)
		path := filepath.Join(dir, name)
		writeIndex(t, path, &e)
		return path
	}
	otherPlan := edited("fingerprint.json", func(e *FragmentIndex) { e.Fingerprint = fmt.Sprintf("%064x", 7) })
	otherTotals := edited("totals.json", func(e *FragmentIndex) { e.Bytes++ })
	swapped := edited("swapped.json", func(e *FragmentIndex) { e.Fragments[0], e.Fragments[1] = e.Fragments[1], e.Fragments[0] })

	for _, c := range []struct {
		name  string
		path  string
		shard int
		want  error
	}{
		{"index, no shard", index, -1, fsimage.ErrInvalidSpec},
		{"index, shard out of range", index, 2, fsimage.ErrInvalidSpec},
		{"fragment, another shard", fragment, 1, fsimage.ErrInvalidSpec},
		{"index of another plan", otherPlan, 0, fsimage.ErrManifestIntegrity},
		{"index of other totals", otherTotals, 1, fsimage.ErrManifestIntegrity},
		{"index filing fragment 1 under shard 0", swapped, 0, fsimage.ErrManifestIntegrity},
	} {
		if _, err := openPlanFile(t, c.path).View(c.shard); !errors.Is(err, c.want) {
			t.Errorf("%s: View(%d) = %v, want %v", c.name, c.shard, err, c.want)
		}
	}
	for _, c := range []struct {
		name string
		path string
		want error
	}{
		{"fragment", fragment, fsimage.ErrInvalidSpec},
		{"index of another plan", otherPlan, fsimage.ErrManifestIntegrity},
		{"index of other totals", otherTotals, fsimage.ErrManifestIntegrity},
	} {
		if _, err := Merge(openPlanFile(t, c.path).Source(context.Background()), nil); !errors.Is(err, c.want) {
			t.Errorf("%s: Merge = %v, want %v", c.name, err, c.want)
		}
	}
}
