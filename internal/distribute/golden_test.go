package distribute

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"impressions/internal/content"
	"impressions/internal/core"
	"impressions/internal/fsimage"
	"impressions/internal/namespace"
)

// Golden pins for testConfig() as a 3-shard plan with 64-record chunks. The
// values were taken at the commit before the executors were collapsed into
// Execute (PR 16's tree), where ExecuteShardView at j = 1 and 4,
// ExecuteShardIncremental fresh and resumed, ExecuteShardViewTar and
// DigestShardView all sealed these same three manifests. A value here
// changes only with a deliberate wire or format version bump.
const (
	goldenTreeHash  = "c4f805b79830c5052e014b78b49f5d6bae5f2e773f9f35a166c958aa36d8e8b5" // fsimage.HashTree of the materialized image
	goldenDigest    = "f34a234e883884de49f65e5956a78b437dbe8562b2d3ce46190a7e6bcb9be587" // canonical image digest
	goldenFragment1 = "7abaf61ad343d70fa92790cfb816542f831dbeabd5c6426ab801698c0d01dffd" // PartitionPlan, fragment 1
	goldenShardDoc2 = "dbbec3826035d40a42aa136387cac016d87f4575b338b4bebef2ee7e6733388a" // PartitionPlan, fragment 2 (first pinned as a shard document sliced out of the plan)
)

// goldenManifests are the ManifestSHA256 of shards 0-2 (29, 179 and 192
// files); goldenJournals the SHA-256 of each shard's journal after a run at
// BatchFiles 8 that FailAfterFiles stopped at 20 files.
var (
	goldenManifests = [3]string{
		"6f1f3b494b984e82e6e2e66cfe9bd58d38b143c1b9cd75aea3d28fe9d8c6162b",
		"a2d28ec87647b28a8f74fc12ca0ccbe97d7a1d3aa128ec1b6faa24bbdbb286a9",
		"225c28aae712ff39ac34b0c27c3611473b220b420d99ecbefeed49df4cbe24fc",
	}
	goldenJournals = [3]string{
		"6f3d614aecdf4208aa7dca93bf23c76374dd18ca341a1613293187a44b93cf2c",
		"d95d3f612fc48cf335861ca37f94d9c1974a42dbf199b7f849b66ef924106542",
		"9a7632ffb498fa942e993f11888b297609e740566122d6eea5b229380410fdb7",
	}
)

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenShard is the pinned plan's shard 1: 179 files, 22 journal batches
// of 8 and one of 3.
func goldenShard(tb testing.TB) *ShardView {
	tb.Helper()
	return planRoundTrip(tb, testConfig(), 3).view(tb, 1)
}

// TestGoldenWireDocuments pins the bytes of two of the plan's fragments.
func TestGoldenWireDocuments(t *testing.T) {
	_, frags := fragmentBuffers(t, PlanRequest{Config: testConfig(), MaxShards: 3, ChunkSize: 64})
	if got := sha256Hex(frags[1]); got != goldenFragment1 {
		t.Errorf("fragment 1 hashes to %s, pinned %s", got, goldenFragment1)
	}
	if got := sha256Hex(frags[2]); got != goldenShardDoc2 {
		t.Errorf("fragment 2 hashes to %s, pinned %s", got, goldenShardDoc2)
	}
}

// escapeConfig is testConfig() with special directories whose records need
// every route the chunk codec has: names JSON must escape for HTML (& < >),
// with a quote, a non-ASCII rune, a tab and a backslash (sanitizeName only
// rewrites '/' and NUL), and biases that %g and JSON print differently
// (1e-07 against 1e-7, 1e+21 against 1e21).
func escapeConfig() core.Config {
	cfg := testConfig()
	cfg.UseSpecialDirectories = true
	cfg.SpecialDirectories = []namespace.SpecialDir{
		{Name: "R&D <tmp>", Depth: 1, Bias: 2.5, FileShare: 0.05},
		{Name: `naïve "dir"`, Depth: 2, Bias: 1e-7},
		{Name: "tab\there\\back", Depth: 3, Bias: 1e21},
	}
	return cfg
}

// Golden pins for escapeConfig() as a 3-shard plan with 64-record chunks,
// taken at the commit before the chunk codec stopped going through fmt and
// encoding/json (PR 17's tree).
const (
	goldenEscapeFragment1 = "951f5ebd75e308a3d89b320a4052f647a7ed2b7f7ad1ae0b4c21a4aba96066a0" // PartitionPlan, fragment 1
	goldenEscapeShardDoc2 = "e5dc6326b4cacec888a88244bf5a74e40eeb7538b31ed9c9e334633dcdb0b867" // PartitionPlan, fragment 2 (first pinned as a sliced shard document)
)

// handBuiltView is a shard view no generator produces: generated file names
// are fileNNNNNNNN.ext over [a-z0-9], but a view decoded from someone else's
// document and encoded again can carry anything but '/' and NUL.
func handBuiltView() *ShardView {
	tree := namespace.GenerateTree(nil, 1, namespace.ShapeFlat)
	for _, d := range []struct {
		parent  int
		name    string
		special bool
		bias    float64
	}{
		{0, "plain", false, 0},
		{0, "l'été & <co>", true, 0.5},
		{2, "line\u2028sep", false, 0},
	} {
		id := tree.AddDir(d.parent)
		tree.Dirs[id].Name, tree.Dirs[id].Special, tree.Dirs[id].Bias = d.name, d.special, d.bias
	}
	files := []fsimage.File{
		{ID: 0, Name: "file00000000.txt", Ext: "txt", Size: 12, DirID: 0, Depth: 1},
		{ID: 1, Name: "it's.r&d", Ext: "r&d", Size: 0, DirID: 2, Depth: 2},
		{ID: 3, Name: "naïve.tx't", Ext: "tx't", Size: 1 << 40, DirID: 3, Depth: 3},
		{ID: 4, Name: "snow☃", Ext: "", Size: 7, DirID: 0, Depth: 1},
	}
	plan := &Plan{
		FormatVersion: FormatVersion, Seed: 7, ContentKind: "default", DigestAlgo: fsimage.DigestVersion,
		Files: 5, Dirs: tree.Len(), Bytes: 1<<40 + 19 + 100, ChunkSize: 3, Chunks: 4,
		ImageSHA256: "0000000000000000000000000000000000000000000000000000000000000000",
		Shards: []ShardPlan{
			{Index: 0, StreamKey: contentStreamKey().String(), Roots: []int{2}, Dirs: 3, Files: 4, Bytes: 1<<40 + 19},
			{Index: 1, StreamKey: contentStreamKey().String(), Roots: []int{1}, Dirs: 1, Files: 1, Bytes: 100},
		},
	}
	return &ShardView{Plan: plan, Tree: tree, Shard: 0, Files: files}
}

// TestGoldenEscapedDocuments pins the wire documents of records whose strings
// and floats the codec cannot copy through verbatim.
func TestGoldenEscapedDocuments(t *testing.T) {
	_, frags := fragmentBuffers(t, PlanRequest{Config: escapeConfig(), MaxShards: 3, ChunkSize: 64})
	for _, name := range []string{`"R\u0026D \u003ctmp\u003e"`, `"naïve \"dir\""`, `"tab\there\\back"`, `"bias":1e-7`, `"bias":1e+21`} {
		if !bytes.Contains(frags[2], []byte(name)) {
			t.Errorf("fragment 2 does not carry %s: the pin does not cover that route", name)
		}
	}
	if got := sha256Hex(frags[1]); got != goldenEscapeFragment1 {
		t.Errorf("fragment 1 hashes to %s, pinned %s", got, goldenEscapeFragment1)
	}
	if got := sha256Hex(frags[2]); got != goldenEscapeShardDoc2 {
		t.Errorf("fragment 2 hashes to %s, pinned %s", got, goldenEscapeShardDoc2)
	}

	hand := encodeView(t, handBuiltView())
	want, err := os.ReadFile(filepath.Join("testdata", "handbuilt_shard.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hand, want) {
		t.Errorf("hand-built shard document:\n%s\npinned in testdata/handbuilt_shard.json:\n%s", hand, want)
	}
	// A parent-commit document decodes, verifies and encodes back to itself.
	decoded, err := DecodeShardView(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("DecodeShardView(testdata/handbuilt_shard.json): %v", err)
	}
	if again := encodeView(t, decoded); !bytes.Equal(again, want) {
		t.Errorf("decoded and re-encoded shard document:\n%s\npinned:\n%s", again, want)
	}
}

// TestGoldenMaterializedTree pins the tree Image.Materialize writes, at
// both parallelism levels.
func TestGoldenMaterializedTree(t *testing.T) {
	cfg := testConfig()
	res, err := core.GenerateImage(cfg)
	if err != nil {
		t.Fatalf("GenerateImage: %v", err)
	}
	for _, j := range []int{1, 4} {
		root := t.TempDir()
		opts := fsimage.MaterializeOptions{Registry: content.NewRegistry(content.KindDefault), Seed: cfg.Seed, Parallelism: j}
		if _, err := res.Image.Materialize(root, opts); err != nil {
			t.Fatalf("j=%d: Materialize: %v", j, err)
		}
		if got, err := fsimage.HashTree(root); err != nil || got != goldenTreeHash {
			t.Errorf("j=%d: tree hashes to %s (%v), pinned %s", j, got, err, goldenTreeHash)
		}
	}
}

// TestExecuteTargetsGolden is the one equivalence table of the executor:
// every target of Execute, at Parallelism 1 and 4, must seal the pinned
// manifest for every shard; the manifests must merge to the pinned image
// digest; and every directory target must leave the pinned tree. The
// resumed rows first crash each shard 20 files in — the journal a crashed
// run leaves is pinned too, so a journal written before this table existed
// resumes the same way — and then finish it from the journal.
func TestExecuteTargetsGolden(t *testing.T) {
	p := planRoundTrip(t, testConfig(), 3)
	if len(p.Plan.Shards) != len(goldenManifests) {
		t.Fatalf("plan has %d shards, the pins cover %d", len(p.Plan.Shards), len(goldenManifests))
	}
	type row struct {
		name    string
		target  func(outRoot string) Target
		tree    bool // a directory target: the tree it leaves is checked too
		journal bool
		crash   bool // crash 20 files in, check the journal, resume
	}
	rows := []row{
		{name: "dir", target: DirTarget, tree: true},
		{name: "dir journaled", target: DirTarget, tree: true, journal: true},
		{name: "dir resumed", target: DirTarget, tree: true, journal: true, crash: true},
		{name: "tar segment", target: func(string) Target { return TarTarget(&bytes.Buffer{}) }},
		{name: "discard", target: func(string) Target { return TarTarget(io.Discard) }},
	}
	for _, r := range rows {
		for _, j := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s j=%d", r.name, j), func(t *testing.T) {
				outRoot, work := t.TempDir(), t.TempDir()
				manifests := make([]*Manifest, len(p.Plan.Shards))
				for s := range p.Plan.Shards {
					view := p.view(t, s)
					opts, target, wantResumed := WorkerOptions{Parallelism: j}, r.target(outRoot), 0
					if r.journal {
						opts.JournalPath, opts.BatchFiles = filepath.Join(work, fmt.Sprintf("journal-%d", s)), 8
					}
					if r.crash {
						opts.FailAfterFiles = 20
						if _, err := Execute(context.Background(), view, target, opts); !errors.Is(err, ErrSimulatedCrash) {
							t.Fatalf("shard %d: injected crash: got %v, want ErrSimulatedCrash", s, err)
						}
						raw, err := os.ReadFile(opts.JournalPath)
						if err != nil {
							t.Fatalf("shard %d: reading journal: %v", s, err)
						}
						if got := sha256Hex(raw); got != goldenJournals[s] {
							t.Errorf("shard %d: crashed run's journal hashes to %s, pinned %s", s, got, goldenJournals[s])
						}
						opts.FailAfterFiles, wantResumed = 0, 20
					}
					res, err := Execute(context.Background(), view, target, opts)
					if err != nil {
						t.Fatalf("Execute(%d): %v", s, err)
					}
					if res.ResumedFiles != wantResumed || res.ResumedFiles+res.WrittenFiles != len(view.Files) {
						t.Errorf("shard %d: resumed %d and wrote %d of %d files, want %d resumed", s, res.ResumedFiles, res.WrittenFiles, len(view.Files), wantResumed)
					}
					if res.Manifest.ManifestSHA256 != goldenManifests[s] {
						t.Errorf("shard %d: manifest %s, pinned %s", s, res.Manifest.ManifestSHA256, goldenManifests[s])
					}
					manifests[s] = res.Manifest
				}
				if merged := p.merge(t, manifests); merged.Digest != goldenDigest {
					t.Errorf("merged digest %s, pinned %s", merged.Digest, goldenDigest)
				}
				if !r.tree {
					return
				}
				if got, err := fsimage.HashTree(outRoot); err != nil || got != goldenTreeHash {
					t.Errorf("tree hashes to %s (%v), pinned %s", got, err, goldenTreeHash)
				}
			})
		}
	}
}
