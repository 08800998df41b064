package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"impressions/internal/content"
	"impressions/internal/core"
	"impressions/internal/distribute"
	"impressions/internal/fleet"
	"impressions/internal/fsimage"
)

// testSpec is a small but structurally interesting image spec.
func testSpec(seed int64) fsimage.Spec {
	return fsimage.Spec{Seed: seed, NumFiles: 300, NumDirs: 60, FSSizeBytes: 300 * 1024}
}

func newTestServer(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, &Client{Base: ts.URL, HTTP: ts.Client()}
}

// gatedStore wraps a PlanStore so tests can hold a build inside Create
// until released, making concurrency interleavings deterministic.
type gatedStore struct {
	PlanStore
	gate    chan struct{}
	creates atomic.Int32
}

func (g *gatedStore) Create(fp string) (PlanWriter, error) {
	g.creates.Add(1)
	<-g.gate
	return g.PlanStore.Create(fp)
}

// TestConcurrentIdenticalSpecsBuildOnce: two racing requests for the same
// spec must trigger exactly one plan build, and both must receive
// byte-identical fragment indexes.
func TestConcurrentIdenticalSpecsBuildOnce(t *testing.T) {
	gs := &gatedStore{PlanStore: NewMemStore(0), gate: make(chan struct{})}
	srv, c := newTestServer(t, Options{Store: gs})
	ctx := context.Background()
	req := PlanRequest{Spec: testSpec(42), Shards: 2}

	bodies := make([][]byte, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	post := func(i int) {
		defer wg.Done()
		resp, err := c.PostPlan(ctx, req)
		if err != nil {
			errs[i] = err
			return
		}
		defer resp.Body.Close()
		bodies[i], errs[i] = io.ReadAll(resp.Body)
	}
	wg.Add(1)
	go post(0)
	// Wait until the leader is provably inside the build (blocked in
	// Create), then race the second request against it.
	waitFor(t, func() bool { return gs.creates.Load() == 1 })
	wg.Add(1)
	go post(1)
	// Give the second request time to join the in-flight build, then let
	// the build finish.
	time.Sleep(50 * time.Millisecond)
	close(gs.gate)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatal("racing requests received different fragment indexes")
	}
	if n := gs.creates.Load(); n != 1 {
		t.Fatalf("store saw %d builds, want 1", n)
	}
	st := srv.Stats()
	if st.PlansBuilt != 1 {
		t.Fatalf("stats report %d plans built, want 1", st.PlansBuilt)
	}

	// A third request is a pure cache hit, byte-identical again.
	resp, err := c.PostPlan(ctx, req)
	if err != nil {
		t.Fatalf("third request: %v", err)
	}
	defer resp.Body.Close()
	if resp.Cache != "hit" {
		t.Fatalf("third request cache state %q, want hit", resp.Cache)
	}
	third, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(third, bodies[0]) {
		t.Fatal("cache hit served different bytes than the build")
	}
	if srv.Stats().PlanCacheHits != 1 {
		t.Fatalf("stats report %d hits, want 1", srv.Stats().PlanCacheHits)
	}
}

// TestCancelledRequestFreesWorkerSlot: with a single worker slot held by a
// blocked build, a queued request whose client disconnects must give up its
// place immediately, and the slot must still serve later requests.
func TestCancelledRequestFreesWorkerSlot(t *testing.T) {
	gs := &gatedStore{PlanStore: NewMemStore(0), gate: make(chan struct{})}
	_, c := newTestServer(t, Options{Store: gs, Workers: 1})

	done := make(chan error, 1)
	go func() {
		resp, err := c.PostPlan(context.Background(), PlanRequest{Spec: testSpec(1)})
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()
	waitFor(t, func() bool { return gs.creates.Load() == 1 })

	// The queued generate waits for the (occupied) slot; cancelling it must
	// return promptly without ever claiming the slot.
	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, err := c.Generate(ctx, testSpec(2))
		queued <- err
	}()
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-queued:
		if err == nil {
			t.Fatal("cancelled queued request reported success")
		}
		if waited := time.Since(start); waited > 2*time.Second {
			t.Fatalf("cancelled request took %v to return", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled queued request never returned")
	}

	// Unblock the build; the slot must drain back to serve new requests.
	close(gs.gate)
	if err := <-done; err != nil {
		t.Fatalf("blocked build failed: %v", err)
	}
	gctx, gcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer gcancel()
	if _, err := c.Generate(gctx, testSpec(3)); err != nil {
		t.Fatalf("generate after cancellation: %v (worker slot leaked?)", err)
	}
}

// getBytes fetches a URL and requires a 200 whose body is as long as its
// Content-Length says.
func getBytes(t *testing.T, c *Client, url string) []byte {
	t.Helper()
	resp, err := c.http().Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(body)) {
		t.Fatalf("GET %s: HTTP %d, %d bytes of a Content-Length of %d (%v)", url, resp.StatusCode, len(body), resp.ContentLength, err)
	}
	return body
}

// TestServedShardsMergeToLocalDigest is the service-level determinism
// check: the daemon serves each shard as the fragment PartitionPlan writes
// for it, byte for byte, and the POST body saved as <fp> with each shard
// saved next to it as <fp>.frag<i> is a plan: workers execute it, and the
// merge of the index prints the digest of a plain in-process generation.
// Executing the client's decoded views instead seals the same manifests.
func TestServedShardsMergeToLocalDigest(t *testing.T) {
	_, c := newTestServer(t, Options{})
	ctx := context.Background()
	spec := testSpec(1234)
	req := PlanRequest{Spec: spec, Shards: 3}

	resp, err := c.PostPlan(ctx, req)
	if err != nil {
		t.Fatalf("PostPlan: %v", err)
	}
	index, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	preq, err := planRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	local := make([]bytes.Buffer, req.Shards)
	plan, err := distribute.PartitionPlan(ctx, preq, func(s int) (io.WriteCloser, error) { return nopWriteCloser{&local[s]}, nil })
	if err != nil {
		t.Fatalf("PartitionPlan: %v", err)
	}

	dir := t.TempDir()
	saved := filepath.Join(dir, resp.Fingerprint)
	if err := os.WriteFile(saved, index, 0o644); err != nil {
		t.Fatal(err)
	}
	for s := range plan.Shards {
		frag := getBytes(t, c, fmt.Sprintf("%s/v1/plans/%s/shards/%d", c.Base, resp.Fingerprint, s))
		if !bytes.Equal(frag, local[s].Bytes()) {
			t.Errorf("GET shard %d served other bytes than PartitionPlan's fragment %d", s, s)
		}
		if err := os.WriteFile(distribute.FragmentName(saved, s), frag, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	pf, err := distribute.OpenPlanFile(saved)
	if err != nil {
		t.Fatalf("OpenPlanFile(the saved POST body): %v", err)
	}
	root := t.TempDir()
	manifests := make([]*distribute.Manifest, len(plan.Shards))
	for s := range manifests {
		view, err := pf.View(s)
		if err != nil {
			t.Fatalf("View(%d): %v", s, err)
		}
		res, err := distribute.Execute(ctx, view, distribute.DirTarget(root), distribute.WorkerOptions{})
		if err != nil {
			t.Fatalf("Execute(%d): %v", s, err)
		}
		manifests[s] = res.Manifest
		pulled, err := c.PullShard(ctx, resp.Fingerprint, s)
		if err != nil {
			t.Fatalf("PullShard(%d): %v", s, err)
		}
		again, err := distribute.Execute(ctx, pulled, distribute.TarTarget(io.Discard), distribute.WorkerOptions{})
		if err != nil {
			t.Fatalf("Execute(pulled %d): %v", s, err)
		}
		if again.Manifest.ManifestSHA256 != res.Manifest.ManifestSHA256 {
			t.Errorf("shard %d: the pulled view seals manifest %s, the saved fragment %s", s, again.Manifest.ManifestSHA256, res.Manifest.ManifestSHA256)
		}
	}

	merged, err := distribute.Merge(pf.Source(ctx), manifests)
	if err == nil {
		err = merged.Err()
	}
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}

	cfg, err := core.ConfigFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.GenerateImage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	localDigest, err := res.Image.Digest(fsimage.MaterializeOptions{
		Registry: content.NewRegistry(content.KindDefault),
		Seed:     spec.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Digest != localDigest {
		t.Fatalf("served shards merged to %s, local run digests %s", merged.Digest, localDigest)
	}

	// The inline endpoint must agree too.
	gen, err := c.Generate(ctx, spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if gen.Digest != localDigest {
		t.Fatalf("inline generate digest %s != local %s", gen.Digest, localDigest)
	}
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// TestErrorMapping: sentinel errors surface as their documented statuses.
func TestErrorMapping(t *testing.T) {
	_, c := newTestServer(t, Options{MaxShards: 4, MaxInlineFiles: 100})
	ctx := context.Background()
	base := c.Base

	post := func(path, body string) int {
		t.Helper()
		resp, err := c.http().Post(base+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	get := func(path string) int {
		t.Helper()
		resp, err := c.http().Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := post("/v1/plans", `{"spec":{"num_files":-5}}`); got != http.StatusBadRequest {
		t.Errorf("negative file count: HTTP %d, want 400", got)
	}
	if got := post("/v1/plans", `not json`); got != http.StatusBadRequest {
		t.Errorf("malformed body: HTTP %d, want 400", got)
	}
	if got := post("/v1/plans", `{"spec":{"num_files":10},"shards":99}`); got != http.StatusBadRequest {
		t.Errorf("over-limit shards: HTTP %d, want 400", got)
	}
	if got := post("/v1/generate", `{"spec":{"num_files":5000}}`); got != http.StatusBadRequest {
		t.Errorf("over-limit inline files: HTTP %d, want 400", got)
	}
	// A content kind this build does not know is a mistake in the spec, not a
	// request for the default policy under another name.
	for _, path := range []string{"/v1/plans", "/v1/runs", "/v1/generate"} {
		if got := post(path, `{"spec":{"num_files":10,"content_kind":"bogus"}}`); got != http.StatusBadRequest {
			t.Errorf("POST %s with an unknown content kind: HTTP %d, want 400", path, got)
		}
	}
	if got := get("/v1/plans/" + strings.Repeat("d", 64) + "/shards/0"); got != http.StatusNotFound {
		t.Errorf("unknown fingerprint: HTTP %d, want 404", got)
	}
	for _, fp := range []string{"deadbeef", strings.Repeat("D", 64), "..%2Foutside", "..%2F..%2F" + strings.Repeat("d", 58)} {
		if got := get("/v1/plans/" + fp + "/shards/0"); got != http.StatusBadRequest {
			t.Errorf("fingerprint %q: HTTP %d, want 400", fp, got)
		}
	}

	// Store a real plan, then ask for impossible shards of it.
	resp, err := c.PostPlan(ctx, PlanRequest{Spec: testSpec(9), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := get("/v1/plans/" + resp.Fingerprint + "/shards/7"); got != http.StatusBadRequest {
		t.Errorf("out-of-range shard: HTTP %d, want 400", got)
	}
	if got := get("/v1/plans/" + resp.Fingerprint + "/shards/x"); got != http.StatusBadRequest {
		t.Errorf("non-numeric shard: HTTP %d, want 400", got)
	}
	if got := get("/v1/plans/" + resp.Fingerprint + "/shards/-1"); got != http.StatusBadRequest {
		t.Errorf("negative shard: HTTP %d, want 400", got)
	}
}

// TestWriteErrorStatuses unit-tests the error → status mapping, including
// the version-skew case that is hard to trigger over HTTP.
func TestWriteErrorStatuses(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("x (%w)", fsimage.ErrInvalidSpec), http.StatusBadRequest},
		{fmt.Errorf("x (%w)", fsimage.ErrPlanVersion), http.StatusConflict},
		{fmt.Errorf("x (%w)", fsimage.ErrManifestIntegrity), http.StatusInternalServerError},
		{fmt.Errorf("x: %w", ErrPlanNotFound), http.StatusNotFound},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{errors.New("boom"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		writeError(rec, tc.err)
		if rec.Code != tc.want {
			t.Errorf("writeError(%v) = HTTP %d, want %d", tc.err, rec.Code, tc.want)
		}
	}
}

// put commits an entry of one n-byte index under fp.
func put(t *testing.T, s PlanStore, fp string, n int) {
	t.Helper()
	w, err := s.Create(fp)
	if err != nil {
		t.Fatal(err)
	}
	part, err := w.Part(IndexPart)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := part.Write(bytes.Repeat([]byte{'x'}, n)); err != nil {
		t.Fatal(err)
	}
	if err := part.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

// readPart reads one part of fp's entry.
func readPart(t *testing.T, s PlanStore, fp string, part int) ([]byte, error) {
	t.Helper()
	entry, err := s.Open(fp)
	if err != nil {
		return nil, err
	}
	rc, size, err := entry.Open(part)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err == nil && int64(len(data)) != size {
		t.Fatalf("part %d of %s: read %d bytes, size says %d", part, fp, len(data), size)
	}
	return data, err
}

// TestMemStoreLRU: the byte budget evicts oldest-first but never the entry
// just committed, and open entries survive eviction.
func TestMemStoreLRU(t *testing.T) {
	s := NewMemStore(100)
	put(t, s, "a", 60)
	held, err := s.Open("a") // hold an entry across its eviction
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "b", 60) // evicts a (120 > 100)
	if _, err := s.Open("a"); !errors.Is(err, ErrPlanNotFound) {
		t.Fatalf("a should have been evicted, Open returned %v", err)
	}
	if _, err := s.Open("b"); err != nil {
		t.Fatalf("b missing after commit: %v", err)
	}
	rc, _, err := held.Open(IndexPart)
	if err != nil {
		t.Fatalf("evicted entry's parts are gone: %v", err)
	}
	if data, err := io.ReadAll(rc); err != nil || len(data) != 60 {
		t.Fatalf("evicted entry's part broke: %d bytes, %v", len(data), err)
	}
	if _, _, err := held.Open(0); !errors.Is(err, fsimage.ErrInvalidSpec) {
		t.Fatalf("a part the entry does not have: %v, want ErrInvalidSpec", err)
	}

	// An entry bigger than the whole budget still caches (it is the newest).
	put(t, s, "big", 200)
	if _, err := s.Open("big"); err != nil {
		t.Fatalf("oversized newest entry evicted: %v", err)
	}
	if _, err := s.Open("b"); !errors.Is(err, ErrPlanNotFound) {
		t.Fatal("b survived an eviction that should have claimed it")
	}

	// Abort leaves no trace.
	w, _ := s.Create("aborted")
	part, _ := w.Part(IndexPart)
	part.Write([]byte("zzz"))
	part.Close()
	w.Abort()
	if _, err := s.Open("aborted"); !errors.Is(err, ErrPlanNotFound) {
		t.Fatal("aborted write became visible")
	}
}

// TestDiskStore: commit is atomic, abort leaves nothing behind, an entry
// that lost a part the index names is no entry, and the store takes no key
// but a fingerprint, so no key reaches outside its root.
func TestDiskStore(t *testing.T) {
	root := t.TempDir()
	s, err := NewDiskStore(filepath.Join(root, "store"))
	if err != nil {
		t.Fatal(err)
	}
	fp1, fp2 := strings.Repeat("1", 64), strings.Repeat("2", 64)
	var index bytes.Buffer
	ix := &distribute.FragmentIndex{FormatVersion: distribute.FragmentIndexVersion, Fingerprint: fp1, Shards: 1, Dirs: 1,
		Fragments: []string{partName(fp1, 0)}}
	if err := ix.Encode(&index); err != nil {
		t.Fatal(err)
	}
	w, err := s.Create(fp1)
	if err != nil {
		t.Fatal(err)
	}
	for part, data := range map[int][]byte{IndexPart: index.Bytes(), 0: []byte("hello")} {
		pw, err := w.Part(part)
		if err != nil {
			t.Fatal(err)
		}
		pw.Write(data)
		if err := pw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Open(fp1); !errors.Is(err, ErrPlanNotFound) {
		t.Fatal("uncommitted entry is visible")
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if data, err := readPart(t, s, fp1, 0); err != nil || string(data) != "hello" {
		t.Fatalf("read back %q (%v)", data, err)
	}
	if _, err := readPart(t, s, fp1, 1); !errors.Is(err, fsimage.ErrInvalidSpec) {
		t.Fatalf("a part the entry does not have: %v, want ErrInvalidSpec", err)
	}
	// The entry is a plan as it lies: the index under the fingerprint's
	// name, in a directory of that name.
	if data, err := os.ReadFile(filepath.Join(root, "store", fp1, fp1)); err != nil || !bytes.Equal(data, index.Bytes()) {
		t.Fatalf("the index on disk: %q (%v)", data, err)
	}

	// A committed entry that lost a fragment the index names (a crash before
	// its directory entry reached the disk) is no entry: Open removes it, so
	// a rebuild can commit in its place.
	if err := os.Remove(filepath.Join(root, "store", fp1, partName(fp1, 0))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open(fp1); !errors.Is(err, ErrPlanNotFound) {
		t.Fatalf("an entry without its fragment: %v, want ErrPlanNotFound", err)
	}
	if _, err := os.Stat(filepath.Join(root, "store", fp1)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the damaged entry is still there: %v", err)
	}

	w2, _ := s.Create(fp2)
	part, _ := w2.Part(IndexPart)
	part.Write([]byte("zzz"))
	part.Close()
	w2.Abort()
	if _, err := s.Open(fp2); !errors.Is(err, ErrPlanNotFound) {
		t.Fatal("aborted entry is visible")
	}
	if left, _ := os.ReadDir(filepath.Join(root, "store")); len(left) != 0 {
		t.Fatalf("the store holds %d entries after a removed commit and an abort", len(left))
	}

	// A plan file beside the store, and an earlier build's plan document in
	// it: neither is reachable.
	if err := os.WriteFile(filepath.Join(root, "outside.plan.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "store", fp2+".plan.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"../outside", "../outside.plan.json", "..", "", strings.ToUpper("a" + fp2[1:]), fp2[:63]} {
		if _, err := s.Open(key); !errors.Is(err, fsimage.ErrInvalidSpec) {
			t.Errorf("Open(%q): %v, want ErrInvalidSpec", key, err)
		}
		if _, err := s.Create(key); !errors.Is(err, fsimage.ErrInvalidSpec) {
			t.Errorf("Create(%q): %v, want ErrInvalidSpec", key, err)
		}
	}
	if _, err := s.Open(fp2); !errors.Is(err, ErrPlanNotFound) {
		t.Fatalf("an earlier build's plan document is served: %v", err)
	}
}

// TestDiskStoreServesPlans: the daemon's disk-backed mode end to end —
// build once, then hit from the file system; a fingerprint that is not one
// is a 400, never a path.
func TestDiskStoreServesPlans(t *testing.T) {
	root := t.TempDir()
	ds, err := NewDiskStore(filepath.Join(root, "store"))
	if err != nil {
		t.Fatal(err)
	}
	srv, c := newTestServer(t, Options{Store: ds})
	ctx := context.Background()
	req := PlanRequest{Spec: testSpec(5), Shards: 2}

	first, err := c.PostPlan(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := io.ReadAll(first.Body)
	first.Body.Close()
	if first.Cache != "miss" {
		t.Fatalf("first request cache state %q, want miss", first.Cache)
	}
	second, err := c.PostPlan(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := io.ReadAll(second.Body)
	second.Body.Close()
	if second.Cache != "hit" {
		t.Fatalf("second request cache state %q, want hit", second.Cache)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("disk-served plan differs from the built one")
	}
	if st := srv.Stats(); st.PlansBuilt != 1 || st.PlanCacheHits != 1 {
		t.Fatalf("stats %+v, want 1 build and 1 hit", st)
	}

	// A stored plan that lost a fragment is not in the store, and the next
	// request rebuilds it; a shard the plan never had is still the request's
	// fault.
	fp := first.Fingerprint
	if err := os.Remove(filepath.Join(root, "store", fp, partName(fp, 1))); err != nil {
		t.Fatal(err)
	}
	get := func(shard int) int {
		t.Helper()
		resp, err := c.http().Get(fmt.Sprintf("%s/v1/plans/%s/shards/%d", c.Base, fp, shard))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(1); code != http.StatusNotFound {
		t.Fatalf("GET a lost shard: HTTP %d, want 404", code)
	}
	third, err := c.PostPlan(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	b3, _ := io.ReadAll(third.Body)
	third.Body.Close()
	if third.Cache != "miss" || !bytes.Equal(b1, b3) {
		t.Fatalf("the request after the loss: cache state %q, same index %t; want a miss with the same index", third.Cache, bytes.Equal(b1, b3))
	}
	if code := get(1); code != http.StatusOK {
		t.Fatalf("GET the rebuilt shard: HTTP %d, want 200", code)
	}
	if code := get(2); code != http.StatusBadRequest {
		t.Fatalf("GET a shard the plan does not have: HTTP %d, want 400", code)
	}

	// A shard of a plan that lies beside the store: the key names a path
	// outside it.
	if err := os.WriteFile(filepath.Join(root, "outside.plan.json"), b1, 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := c.http().Get(c.Base + "/v1/plans/..%2Foutside/shards/0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET /v1/plans/..%%2Foutside/shards/0: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestFlightGroupFollowerCancellation: a follower abandoning the wait gets
// its own context error; the leader is unaffected.
func TestFlightGroupFollowerCancellation(t *testing.T) {
	var g flightGroup
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, err := g.do(context.Background(), "k", func() error { <-release; return nil })
		leaderDone <- err
	}()
	waitFor(t, func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.m["k"] != nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	leader, err := g.do(ctx, "k", func() error { return nil })
	if leader || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower: leader=%t err=%v", leader, err)
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// forgetfulStore is a PlanStore that accepts every write and keeps none: an
// entry is gone again by the time its builder re-opens it, the worst case of
// a byte budget much smaller than the plan.
type forgetfulStore struct{}

func (forgetfulStore) Open(fp string) (PlanEntry, error) {
	return nil, fmt.Errorf("%w (fingerprint %s)", ErrPlanNotFound, fp)
}
func (forgetfulStore) Create(string) (PlanWriter, error) { return forgetfulWriter{}, nil }

type forgetfulWriter struct{}

func (forgetfulWriter) Part(int) (io.WriteCloser, error) { return nopWriteCloser{io.Discard}, nil }
func (forgetfulWriter) Commit() error                    { return nil }
func (forgetfulWriter) Abort() error                     { return nil }

// cacheCounters is the part of Stats the cache discipline owns.
type cacheCounters struct{ built, hits, misses, coalesced int64 }

func countersSince(before, after Stats) cacheCounters {
	return cacheCounters{
		built:     after.PlansBuilt - before.PlansBuilt,
		hits:      after.PlanCacheHits - before.PlanCacheHits,
		misses:    after.PlanCacheMisses - before.PlanCacheMisses,
		coalesced: after.CoalescedBuilds - before.CoalescedBuilds,
	}
}

// cacheAnswer is one response of a build-or-fetch entry point, as the table
// below compares it.
type cacheAnswer struct {
	status int
	cache  string // the X-Impressions-Cache header
	fp     string
	body   []byte
	err    error
}

// TestCacheDiscipline pins the build-or-fetch protocol of the two entry
// points that share it — POST /v1/plans and POST /v1/runs — in every state a
// request can find the cache in: the header, the /v1/stats deltas and the
// response bytes. A request the API cannot read, such as one asking for the
// partitioned plan it no longer builds, is refused before the cache is.
func TestCacheDiscipline(t *testing.T) {
	const racers = 4
	entries := []struct {
		name string
		path string
		req  PlanRequest
		// verdict is what the entry point reports in X-Impressions-Cache for
		// the verdict the cache reached: /v1/runs answers with a run status
		// and reports none.
		verdict func(string) string
		// body makes two answers to the same question comparable.
		body func(t *testing.T, raw []byte) []byte
	}{
		{name: "plans", path: "/v1/plans", req: PlanRequest{Spec: testSpec(77), Shards: 2},
			verdict: func(v string) string { return v }, body: func(_ *testing.T, raw []byte) []byte { return raw }},
		{name: "runs", path: "/v1/runs", req: PlanRequest{Spec: testSpec(77), Shards: 2},
			verdict: func(string) string { return "" },
			// A run's status carries its own id and age; the rest is a
			// function of the plan.
			body: func(t *testing.T, raw []byte) []byte {
				t.Helper()
				var st fleet.RunStatus
				if err := json.Unmarshal(raw, &st); err != nil {
					t.Fatalf("run status %q: %v", raw, err)
				}
				if st.ID == "" || st.TotalShards != 2 || st.State != fleet.RunRunning {
					t.Fatalf("run status %+v, want a running 2-shard run", st)
				}
				st.ID, st.ElapsedMillis = "", 0
				out, err := json.Marshal(st)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}},
	}
	for _, e := range entries {
		raw, err := json.Marshal(e.req)
		if err != nil {
			t.Fatal(err)
		}
		post := func(ctx context.Context, c *Client) cacheAnswer {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+e.path, bytes.NewReader(raw))
			if err != nil {
				return cacheAnswer{err: err}
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := c.http().Do(req)
			if err != nil {
				return cacheAnswer{err: err}
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			return cacheAnswer{status: resp.StatusCode, cache: resp.Header.Get(HeaderCache),
				fp: resp.Header.Get(HeaderFingerprint), body: body, err: err}
		}
		ok := func(t *testing.T, what string, a cacheAnswer, verdict string, want []byte) {
			t.Helper()
			if a.err != nil {
				t.Fatalf("%s: %v", what, a.err)
			}
			if a.status != http.StatusOK {
				t.Fatalf("%s: HTTP %d: %s", what, a.status, a.body)
			}
			if a.cache != e.verdict(verdict) {
				t.Fatalf("%s: %s %q, want %q", what, HeaderCache, a.cache, e.verdict(verdict))
			}
			if a.fp == "" {
				t.Fatalf("%s: no %s header", what, HeaderFingerprint)
			}
			if want != nil && !bytes.Equal(e.body(t, a.body), want) {
				t.Fatalf("%s: the response differs from the reference one", what)
			}
		}
		counted := func(t *testing.T, what string, srv *Server, before Stats, want cacheCounters) {
			t.Helper()
			if got := countersSince(before, srv.Stats()); got != want {
				t.Fatalf("%s: counters moved by %+v, want %+v", what, got, want)
			}
		}
		bg := context.Background()

		// The reference answer: a server of its own, asked once.
		_, refClient := newTestServer(t, Options{})
		ref := post(bg, refClient)
		if ref.err != nil || ref.status != http.StatusOK {
			t.Fatalf("%s: reference request: HTTP %d, %v", e.name, ref.status, ref.err)
		}
		want := e.body(t, ref.body)

		t.Run(e.name+"/cold miss then hit", func(t *testing.T) {
			srv, c := newTestServer(t, Options{})
			before := srv.Stats()
			ok(t, "cold request", post(bg, c), "miss", want)
			counted(t, "cold request", srv, before, cacheCounters{built: 1, misses: 1})
			before = srv.Stats()
			ok(t, "repeated request", post(bg, c), "hit", want)
			counted(t, "repeated request", srv, before, cacheCounters{hits: 1})
		})

		t.Run(e.name+"/racing requests build once", func(t *testing.T) {
			gs := &gatedStore{PlanStore: NewMemStore(0), gate: make(chan struct{})}
			srv, c := newTestServer(t, Options{Store: gs})
			before := srv.Stats()
			answers := make(chan cacheAnswer, racers)
			go func() { answers <- post(bg, c) }()
			// The leader is provably inside the build (blocked in Create)
			// before anyone races it.
			waitFor(t, func() bool { return gs.creates.Load() >= 1 })
			for i := 1; i < racers; i++ {
				go func() { answers <- post(bg, c) }()
			}
			waitFor(t, func() bool { return srv.Stats().PlanCacheMisses-before.PlanCacheMisses == racers })
			time.Sleep(50 * time.Millisecond) // from counted as a miss to waiting on the build
			close(gs.gate)
			verdicts := map[string]int{}
			for i := 0; i < racers; i++ {
				a := <-answers
				ok(t, "racing request", a, a.cache, want)
				verdicts[a.cache]++
			}
			wantVerdicts := map[string]int{}
			wantVerdicts[e.verdict("miss")]++
			wantVerdicts[e.verdict("coalesced")] += racers - 1
			if !reflect.DeepEqual(verdicts, wantVerdicts) {
				t.Fatalf("racing requests were answered %v, want %v", verdicts, wantVerdicts)
			}
			counted(t, "racing requests", srv, before, cacheCounters{built: 1, misses: racers, coalesced: racers - 1})
		})

		t.Run(e.name+"/a waiter outlives its cancelled leader", func(t *testing.T) {
			gs := &gatedStore{PlanStore: NewMemStore(0), gate: make(chan struct{})}
			srv, c := newTestServer(t, Options{Store: gs})
			before := srv.Stats()
			lctx, lcancel := context.WithCancel(bg)
			defer lcancel()
			leader := make(chan cacheAnswer, 1)
			go func() { leader <- post(lctx, c) }()
			waitFor(t, func() bool { return gs.creates.Load() >= 1 })
			waiter := make(chan cacheAnswer, 1)
			go func() { waiter <- post(bg, c) }()
			waitFor(t, func() bool { return srv.Stats().PlanCacheMisses-before.PlanCacheMisses == 2 })
			time.Sleep(50 * time.Millisecond)
			// The leader's client goes away while its build is held in Create;
			// the build fails on its dead context as soon as it is let go.
			lcancel()
			if a := <-leader; a.err == nil {
				t.Fatalf("the cancelled leader was answered HTTP %d", a.status)
			}
			time.Sleep(200 * time.Millisecond) // the server learns of it from the closed connection
			close(gs.gate)
			ok(t, "surviving waiter", <-waiter, "miss", want)
			counted(t, "cancelled leader and its waiter", srv, before, cacheCounters{built: 1, misses: 2})
		})

		t.Run(e.name+"/entry gone between commit and re-open", func(t *testing.T) {
			srv, c := newTestServer(t, Options{Store: forgetfulStore{}})
			before := srv.Stats()
			if a := post(bg, c); a.err != nil || a.status != http.StatusNotFound {
				t.Fatalf("HTTP %d (%v), want 404: %s", a.status, a.err, a.body)
			}
			counted(t, "request for a forgotten entry", srv, before, cacheCounters{built: 1, misses: 1})
		})
	}

	// A request for a partitioned plan, the flavour the API no longer has, is a
	// 400 on both entry points: read as a plan request without the field it
	// would be answered with a one-shard plan nobody asked for.
	t.Run("partition/refused", func(t *testing.T) {
		srv, c := newTestServer(t, Options{})
		spec, err := json.Marshal(testSpec(77))
		if err != nil {
			t.Fatal(err)
		}
		before := srv.Stats()
		for _, path := range []string{"/v1/plans", "/v1/runs"} {
			resp, err := c.http().Post(c.Base+path, "application/json", strings.NewReader(`{"spec":`+string(spec)+`,"partition":2}`))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `unknown field \"partition\"`) {
				t.Errorf("POST %s with partition: HTTP %d: %.200s, want 400 naming the field", path, resp.StatusCode, body)
			}
		}
		if got := countersSince(before, srv.Stats()); got != (cacheCounters{}) {
			t.Errorf("refused requests moved the cache counters by %+v", got)
		}
		if st := srv.Fleet().StatsSnapshot(); st.RunsActive != 0 {
			t.Errorf("a refused POST /v1/runs created %d runs", st.RunsActive)
		}
	})
}

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/generate-*.json from this build's answers")

// TestGenerateEndpointPins holds POST /v1/generate to the answers it gave
// before it stopped retaining the image: digest, report totals, accuracy and
// the normalized spec, for a default spec and one with a simulated disk.
func TestGenerateEndpointPins(t *testing.T) {
	_, c := newTestServer(t, Options{})
	layout := testSpec(2)
	layout.LayoutScore = 0.8
	layout.ContentKind = "text-1word"
	for name, spec := range map[string]fsimage.Spec{"default": testSpec(1234), "layout": layout} {
		got, err := c.Generate(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: Generate: %v", name, err)
		}
		got.Report.GeneratedAt, got.Report.PhaseTimes = time.Time{}, nil
		answer, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "generate-"+name+".json")
		if *updatePins {
			if err := os.WriteFile(path, append(answer, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(answer, '\n'), want) {
			t.Errorf("%s: POST /v1/generate answered\n%s\nwant\n%s", name, answer, want)
		}
	}
}
