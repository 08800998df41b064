package distribute

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
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
// stream moved; and every pin was taken again at digest version 2, which
// plans name, so their fingerprints moved and no record or image byte did.
// Since then the tree a directory target leaves hashes to the image digest.
const (
	goldenDigest    = "68b599cfef3d86251d7873489b3a1be43599776ebcc3fd98baea321bc4854cfb" // canonical image digest, and fsimage.HashTree of the materialized image
	goldenFragment1 = "c23eee8d3862e559c29b6ee1949d552ac51711646c263f90777bf9704630ca1c" // PartitionPlan, fragment 1
	goldenShardDoc2 = "96a0b6348c85da83ff2588d53afb6f03e2599d7b3e32f552a0dc1a1b9de93555" // PartitionPlan, fragment 2 (first pinned as a shard document sliced out of the plan)
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
		"f6f9cf6f05666b47aaa17712357f7b454a2dc039db6a2eec621b5c5684d4a99b",
		"f06b972a2c089d580d14776e1d4a823f9d9ab623f0ec01bf3fa902bbf97125de",
		"3fd5d66e8f20ba81e8a97cde03f1ed95a80062895bef14de79bc35c6a98d0a77",
	}
	goldenJournals = [3]string{
		"b29d183d6cd616dae297fe12a03375da932eeb95dd164341019c4d59a235d3e0",
		"50f793772d88e8f43da4f291e27508290e9141f0788a9e22c59f87e4221d1d89",
		"386277844b5310bddf7f289f0e9c5776235cb09843f69811133bada08d034eac",
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

// TestGoldenWireDocuments pins the bytes of two of the plan's fragments,
// built with the columns on the heap and a sealer of one piece and no
// goroutine (-j 1), and spilled with three sealing goroutines (-j 4): every
// backing and parallelism must write the pinned bytes.
func TestGoldenWireDocuments(t *testing.T) {
	for _, par := range []int{1, 4} {
		cfg := testConfig()
		if cfg.Parallelism = par; par > 1 {
			cfg.SpillDir = t.TempDir()
		}
		_, frags := fragmentBuffers(t, PlanRequest{Config: cfg, MaxShards: 3, ChunkSize: 64})
		if got := sha256Hex(frags[1]); got != goldenFragment1 {
			t.Errorf("-j %d: fragment 1 hashes to %s, pinned %s", par, got, goldenFragment1)
		}
		if got := sha256Hex(frags[2]); got != goldenShardDoc2 {
			t.Errorf("-j %d: fragment 2 hashes to %s, pinned %s", par, got, goldenShardDoc2)
		}
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
// encoding/json (PR 17's tree), and again at format version 5 and at digest
// version 2.
const (
	goldenEscapeFragment1 = "92b554f49c027c4c5c1f9d240759e1f1e12e93252a158ed2332d93c22f6a39fe" // PartitionPlan, fragment 1
	goldenEscapeShardDoc2 = "33f74e4464ba31d628fc937a53770583c92e90ac197ed862541eb0403a9a7bd0" // PartitionPlan, fragment 2 (first pinned as a sliced shard document)
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
		if got, err := fsimage.HashTree(root); err != nil || got != goldenDigest {
			t.Errorf("j=%d: tree hashes to %s (%v), pinned %s", j, got, err, goldenDigest)
		}
	}
}

// TestExecuteTargetsGolden is the one equivalence table of the executor:
// every target of Execute must seal the pinned manifest for every shard;
// the manifests must merge to the pinned image digest; and every directory
// target must leave the pinned tree. The resumed row first crashes each
// shard 20 files in — the journal a crashed run leaves is pinned too, so a
// journal written before this table existed resumes the same way — and
// then finishes it from the journal, journaling every batch it writes. Each
// row runs at one Parallelism: the writers under the targets are held to
// their bytes at -j 1 and -j 4 elsewhere (TestGoldenMaterializedTree, the
// journaled resumes of TestJournaledFailureMidBatch, internal/imgfmt's
// parallelism tests, TestTarWorkerIdenticalAtAnyParallelism), so the rows
// alternate between the two. A tar segment written to io.Discard is the
// same target as one written to a buffer.
func TestExecuteTargetsGolden(t *testing.T) {
	p := planRoundTrip(t, testConfig(), 3)
	if len(p.Plan.Shards) != len(goldenManifests) {
		t.Fatalf("plan has %d shards, the pins cover %d", len(p.Plan.Shards), len(goldenManifests))
	}
	type row struct {
		name    string
		j       int
		target  func(outRoot string) Target
		tree    bool // a directory target: the tree it leaves is checked too
		journal bool
		crash   bool // crash 20 files in, check the journal, resume
	}
	rows := []row{
		{name: "dir", j: 1, target: DirTarget, tree: true},
		{name: "dir resumed", j: 4, target: DirTarget, tree: true, journal: true, crash: true},
		{name: "tar segment", j: 4, target: func(string) Target { return TarTarget(&bytes.Buffer{}) }},
	}
	for _, r := range rows {
		t.Run(fmt.Sprintf("%s j=%d", r.name, r.j), func(t *testing.T) {
			outRoot, work := t.TempDir(), t.TempDir()
			manifests := make([]*Manifest, len(p.Plan.Shards))
			for s := range p.Plan.Shards {
				view := p.view(t, s)
				opts, target, wantResumed := WorkerOptions{Parallelism: r.j}, r.target(outRoot), 0
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
			if got, err := fsimage.HashTree(outRoot); err != nil || got != goldenDigest {
				t.Errorf("tree hashes to %s (%v), pinned %s", got, err, goldenDigest)
			}
		})
	}
}
