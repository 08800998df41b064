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
// changes only with a deliberate wire or format version bump: the fragment,
// manifest and journal pins were taken again at format version 4, whose
// fragments seal the plan with their chains, and no record, digest or tree
// hash moved; every pin here was taken again at format version 5, whose
// canonical file order is directory-major, so every file's name and content
// stream moved.
const (
	goldenTreeHash  = "66f925fc468b0091f7f506e7a4c1f3ff2cc645ebd6b0caf3d4bda39b07bee988" // fsimage.HashTree of the materialized image
	goldenDigest    = "8516c0a3d8cb09eac76b028d09d8ec2db883830419698d6ded8b826d26bf5965" // canonical image digest
	goldenFragment1 = "d4ab6a76c228d9135726bb640cb7c8fe4a654cd236203c6682ec38f573121c43" // PartitionPlan, fragment 1
	goldenShardDoc2 = "c7c4908272b1dcffe09d14b903578666d838f8b3f9c84427e3b7b7b745244493" // PartitionPlan, fragment 2 (first pinned as a shard document sliced out of the plan)
)

// goldenManifests are the ManifestSHA256 of shards 0-2 (29, 179 and 192
// files); goldenJournals the SHA-256 of each shard's journal after a run at
// BatchFiles 8 that FailAfterFiles stopped at 20 files. The journals were
// pinned again at JournalVersion 2, whose positions index each shard's
// directory order — since format version 5 its file list; the version 1
// journal of shard 1 is kept as
// testdata/journal-v1-shard1.jsonl (goldenJournalV1).
var (
	goldenManifests = [3]string{
		"c1bf24b6144551d611fdcd0686acbc537e515cecebc7a1d9ec6d98372459d28d",
		"11260190add1bf28b63e440c8d6cd6599b1f748630cc0a9952fb7eb85bd24e23",
		"37b17af4754b67ffce9f997bd21883a660fa371b2b6278cb03b8ac7bec5ba554",
	}
	goldenJournals = [3]string{
		"452fd58e3f38e00e0e6167a0b74f3ee7b5e8b505ebfa49eadac93677ed805467",
		"e16fae936cd735e841db92e127d7833c54300636863ad6c397106972b2418102",
		"2959f269da5986de80bfa13db8acd966f13d1abc430a9463d637f643a3ab1080",
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
// encoding/json (PR 17's tree), and again at format version 5.
const (
	goldenEscapeFragment1 = "7abf65e715b90004f365d48363ba88addadd40caa52817ea7408176bfba05692" // PartitionPlan, fragment 1
	goldenEscapeShardDoc2 = "1291faf2656f61b4377729b643367ed92847ea4a33de282d5d6eebca6ba63df3" // PartitionPlan, fragment 2 (first pinned as a sliced shard document)
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
		{ID: 1, Name: "snow☃", Ext: "", Size: 7, DirID: 0, Depth: 1},
		{ID: 3, Name: "it's.r&d", Ext: "r&d", Size: 0, DirID: 2, Depth: 2},
		{ID: 4, Name: "naïve.tx't", Ext: "tx't", Size: 1 << 40, DirID: 3, Depth: 3},
	}
	plan := &Plan{
		FormatVersion: FormatVersion, Seed: 7, ContentKind: "default", DigestAlgo: fsimage.DigestVersion,
		Files: 5, Dirs: tree.Len(), Bytes: 1<<40 + 19 + 100, ChunkSize: 3,
		Shards: []ShardPlan{
			{Index: 0, StreamKey: contentStreamKey, Roots: []int{2}, Dirs: 3, Files: 4, Bytes: 1<<40 + 19},
			{Index: 1, StreamKey: contentStreamKey, Roots: []int{1}, Dirs: 1, Files: 1, Bytes: 100},
		},
		// Shard 0's own chain is the one its records make, which the
		// writer puts in its place.
		Chains: []string{"", "0000000000000000000000000000000000000000000000000000000000000000"},
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
