package distribute

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"impressions/internal/fsimage"
)

// writePlanFiles writes one plan in every shape OpenPlanFile takes: the
// document, and an index over its fragments, which lie next to the index.
func writePlanFiles(t *testing.T, k int) (doc, index string, ix *FragmentIndex) {
	t.Helper()
	dir := t.TempDir()
	req := PlanRequest{Config: testConfig(), MaxShards: k, ChunkSize: 64}
	plan, frags := fragmentBuffers(t, req)
	ix = plan.FragmentIndex(func(s int) string { return FragmentName("plan.json", s) })
	for s, frag := range frags {
		if err := os.WriteFile(filepath.Join(dir, ix.Fragments[s]), frag, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	doc, index = filepath.Join(dir, "mono.json"), filepath.Join(dir, "plan.json")
	writeIndex(t, index, ix)
	if err := os.WriteFile(doc, planRoundTrip(t, testConfig(), k).doc, 0o644); err != nil {
		t.Fatal(err)
	}
	return doc, index, ix
}

func writeIndex(t *testing.T, path string, ix *FragmentIndex) {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
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

func encodeView(t *testing.T, v *ShardView) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := v.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOpenPlanFileShapes: a plan document, its fragment index and each of
// its fragments open at their paths and give a worker the same shard, and
// the document and the index give the merge the same plan.
func TestOpenPlanFileShapes(t *testing.T) {
	const k = 3
	doc, index, ix := writePlanFiles(t, k)
	d, x := openPlanFile(t, doc), openPlanFile(t, index)
	manifests := make([]*Manifest, k)
	for s := 0; s < k; s++ {
		want, err := d.View(s)
		if err != nil {
			t.Fatalf("document View(%d): %v", s, err)
		}
		fromIndex, err := x.View(s)
		if err != nil {
			t.Fatalf("index View(%d): %v", s, err)
		}
		f := openPlanFile(t, filepath.Join(filepath.Dir(index), ix.Fragments[s]))
		fromFragment, err := f.View(-1)
		if err != nil {
			t.Fatalf("fragment %d View(-1): %v", s, err)
		}
		for name, v := range map[string]*ShardView{"index": fromIndex, "fragment": fromFragment} {
			if v.Shard != s || !bytes.Equal(encodeView(t, v), encodeView(t, want)) {
				t.Errorf("shard %d from the %s is not the document's", s, name)
			}
		}
		if manifests[s], err = executeView(want, TarTarget(&bytes.Buffer{}), WorkerOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	var results []*MergeResult
	for _, pf := range []*PlanFile{d, x} {
		res, err := Merge(pf.Source(context.Background()), manifests)
		if err == nil {
			err = res.Err()
		}
		if err != nil {
			t.Fatalf("Merge: %v", err)
		}
		results = append(results, res)
	}
	a, b := results[0], results[1]
	b.Report.GeneratedAt = a.Report.GeneratedAt
	if a.Digest == "" || a.Digest != b.Digest || a.Summary() != b.Summary() || !reflect.DeepEqual(a.Report, b.Report) {
		t.Errorf("the index merged to %s (%s), the document to %s (%s)", b.Digest, b.Summary(), a.Digest, a.Summary())
	}
}

// TestOpenPlanFileRefusals: what a path cannot give is refused with the
// sentinel of whose fault it is. Asking a whole plan for no shard or one it
// does not have, a shard document for another shard, or a shard document
// for the whole plan is the caller's (ErrInvalidSpec). A file of none of the
// three shapes, and an index that names another plan than its fragments
// carry or files a fragment under another shard, are damaged artifacts
// (ErrManifestIntegrity), at the worker and at the merge alike.
func TestOpenPlanFileRefusals(t *testing.T) {
	doc, index, ix := writePlanFiles(t, 2)
	dir := filepath.Dir(index)
	fragment := filepath.Join(dir, ix.Fragments[0])
	junk := filepath.Join(dir, "junk.json")
	if err := os.WriteFile(junk, []byte(`{"chunks": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPlanFile(junk); !errors.Is(err, fsimage.ErrManifestIntegrity) {
		t.Errorf("OpenPlanFile of a file of no plan shape: %v, want %v", err, fsimage.ErrManifestIntegrity)
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
		{"document, no shard", doc, -1, fsimage.ErrInvalidSpec},
		{"document, shard out of range", doc, 2, fsimage.ErrInvalidSpec},
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
