package distribute

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"impressions/internal/fsimage"
)

// The fuzz targets assert on arbitrary bytes what the malformed-document
// table asserts on its rows: a decoder answers with exactly one of the three
// sentinels or with an artifact that survives a round trip, allocates within
// allocBound of what it read, does not panic, and returns. Seeds are the
// golden fragments, testdata/handbuilt_shard.json and every row of the
// table; what fuzzing found since is under testdata/fuzz/. A mutated record
// stops at its chunk's hash, so each input is also run resealed: with the
// hashes, the count and the chain recomputed over whatever records it
// carries, which is how the fuzzer reaches the record checks behind them.

// reseal rewrites a shard document so that every chunk hash, the trailer's
// count and its chain are right for the records the document carries,
// leaving the view, the records and the chunk indices as they are. It
// returns nil for input that is not an object with an array of chunks in it.
func reseal(doc []byte) []byte {
	var envelope map[string]json.RawMessage
	var chunks []fsimage.Chunk
	if json.Unmarshal(doc, &envelope) != nil || envelope["view"] == nil || json.Unmarshal(envelope["records"], &chunks) != nil {
		return nil
	}
	out := fmt.Appendf(nil, `{"view":%s,"records":[`, envelope["view"])
	chain := fsimage.NewChunkHashChain()
	for i := range chunks {
		chunks[i].SHA256 = chunks[i].RecordsHash()
		chain.Add(chunks[i].SHA256)
		if i > 0 {
			out = append(out, ',')
		}
		var err error
		if out, err = chunks[i].AppendJSON(out); err != nil {
			return nil
		}
	}
	return fmt.Appendf(out, "],\"trailer\":{\"chunks\":%d,\"records_sha256\":%q}}", len(chunks), chain.Sum())
}

// sentinelOf returns the one sentinel err wraps, and fails the test when it
// wraps none, several, or the call panicked or over-allocated.
func sentinelOf(t *testing.T, door string, err error, alloc uint64, n int) error {
	t.Helper()
	if alloc > allocBound(n) {
		t.Errorf("%s allocated %d bytes over a %d-byte input; bound %d", door, alloc, n, allocBound(n))
	}
	if err == nil {
		return nil
	}
	var is error
	for _, s := range sentinels {
		if errors.Is(err, s) {
			if is != nil {
				t.Errorf("%s: error wraps both %q and %q: %v", door, is, s, err)
			}
			is = s
		}
	}
	if is == nil {
		t.Errorf("%s: error wraps no sentinel: %v", door, err)
	}
	if strings.Contains(err.Error(), "distribute: distribute:") {
		t.Errorf("%s: doubled package prefix: %v", door, err)
	}
	return is
}

// roundTrip requires a decoded view to encode to a shard document that
// decodes again, to the same plan fingerprint and the same records.
func roundTrip(t *testing.T, v *ShardView) {
	t.Helper()
	doc := encodeView(t, v)
	again, err := DecodeShardView(bytes.NewReader(doc))
	if err != nil {
		t.Fatalf("an accepted view's document does not decode: %v\n%s", err, doc)
	}
	if got, want := again.Plan.Fingerprint(), v.Plan.Fingerprint(); got != want {
		t.Errorf("fingerprint %s after the round trip, %s before", got, want)
	}
	if again.Shard != v.Shard || len(again.Dirs) != len(v.Dirs) || len(again.Files) != len(v.Files) {
		t.Errorf("shard %d with %d dirs, %d files after the round trip; shard %d with %d, %d before",
			again.Shard, len(again.Dirs), len(again.Files), v.Shard, len(v.Dirs), len(v.Files))
	}
}

// FuzzShardDocument: DecodeShardView on arbitrary bytes.
func FuzzShardDocument(f *testing.F) {
	for _, cfg := range []PlanRequest{{Config: testConfig(), MaxShards: 3, ChunkSize: 64}, {Config: escapeConfig(), MaxShards: 3, ChunkSize: 64}} {
		_, frags := fragmentBuffers(f, cfg)
		f.Add(frags[2])
	}
	hand, err := os.ReadFile(filepath.Join("testdata", "handbuilt_shard.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hand)
	for _, m := range malformedDocuments(f) {
		f.Add(m.doc)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		for _, doc := range [][]byte{doc, reseal(doc)} {
			if doc == nil {
				continue
			}
			var view *ShardView
			err, alloc := verdict(func() (err error) {
				view, err = DecodeShardView(bytes.NewReader(doc))
				return err
			})
			if sentinelOf(t, "DecodeShardView", err, alloc, len(doc)) == nil {
				roundTrip(t, view)
			}
		}
	})
}

// FuzzFragmentSource: a fragment meets one verdict alone and in its plan.
// Merge replays doc as fragment 1 of the malformed table's plan, between its
// two intact fragments. Where DecodeShardView refuses doc, the merge refuses
// with the same sentinel; where it accepts doc, the merge accepts or finds
// the set damaged, as doc may be another plan's fragment or another shard's.
// Seeds are fragment 1 of the two golden configs, every row of the table and
// testdata/fuzz/.
func FuzzFragmentSource(f *testing.F) {
	frags := planRoundTrip(f, testConfig(), 3).frags
	f.Add(frags[1])
	f.Add(planRoundTrip(f, escapeConfig(), 3).frags[1])
	for _, m := range malformedDocuments(f) {
		f.Add(m.doc)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		for _, doc := range [][]byte{doc, reseal(doc)} {
			if doc == nil {
				continue
			}
			err, alloc := verdict(func() error {
				_, err := DecodeShardView(bytes.NewReader(doc))
				return err
			})
			alone := sentinelOf(t, "DecodeShardView", err, alloc, len(doc))
			err, alloc = verdict(func() error {
				_, err := Merge(fragmentSource(context.Background(), [][]byte{frags[0], doc, frags[2]}), nil)
				return err
			})
			merged := sentinelOf(t, "Merge", err, alloc, len(frags[0])+len(doc)+len(frags[2]))
			if merged != alone && (alone != nil || merged != fsimage.ErrManifestIntegrity) {
				t.Errorf("DecodeShardView says %v; Merge with it as fragment 1 says %v", alone, err)
			}
		}
	})
}

// fmtSelfHash is Manifest.selfHash as fmt renders it, the reference its
// appenders are held to.
func fmtSelfHash(m *Manifest) string {
	h := sha256.New()
	fmt.Fprintf(h, "impressions-manifest-v%d\nplan:%s\nshard:%d dirs:%d files:%d bytes:%d hashed:%t\n",
		m.FormatVersion, m.PlanFingerprint, m.Shard, m.Dirs, m.Files, m.Bytes, m.ContentHashed)
	for _, fd := range m.FileDigests {
		fmt.Fprintf(h, "%d %d %s\n", fd.ID, fd.Size, fd.SHA256)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestManifestSelfHashMatchesFmt: the self-hash of manifests whose lines
// fill the flush buffer several times over, with negative numbers, strings
// that are not hex and a line longer than the buffer in the middle.
func TestManifestSelfHashMatchesFmt(t *testing.T) {
	m := &Manifest{FormatVersion: -3, PlanFingerprint: "plan\n\"quoted\" é", Shard: 7, Dirs: -1, Files: 1 << 40, Bytes: -1 << 63, ContentHashed: true}
	for _, n := range []int{0, 1, 3000} {
		m.FileDigests = m.FileDigests[:0]
		for i := range n {
			fd := FileDigest{ID: i - 5, Size: int64(i) * 1_000_003, SHA256: strings.Repeat("ab", i%40)}
			if i == n/2 {
				fd.SHA256 = strings.Repeat("x", 3*manifestFlushBytes)
			}
			m.FileDigests = append(m.FileDigests, fd)
		}
		if got, want := m.selfHash(), fmtSelfHash(m); got != want {
			t.Errorf("%d entries: selfHash %s, fmt renders %s", n, got, want)
		}
	}
}

// FuzzManifest: the two single-object artifacts. Bytes that decode as a
// manifest hash as fmtSelfHash does, and are verified against a fixed
// 2-shard plan (ManifestCheck), which must end in a sentinel or in a manifest
// that encodes back to a document of the same seal; bytes that decode as a
// fragment index must name fragments inside the index's directory, one per
// shard.
func FuzzManifest(f *testing.F) {
	p := planRoundTrip(f, testConfig(), 2)
	check, err := NewManifestCheck(p.source())
	if err != nil {
		f.Fatal(err)
	}
	for _, opts := range []WorkerOptions{{}, {MetadataOnly: true}} {
		m, err := executeShard(p, 1, f.TempDir(), opts)
		if err != nil {
			f.Fatal(err)
		}
		var doc bytes.Buffer
		if err := m.Encode(&doc); err != nil {
			f.Fatal(err)
		}
		f.Add(doc.Bytes())
	}
	manifests, indexes := malformedLeaves(f)
	for _, m := range append(manifests, indexes...) {
		f.Add(m.doc)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		if m, err := DecodeManifest(bytes.NewReader(doc)); err == nil && m.selfHash() != fmtSelfHash(m) {
			t.Errorf("selfHash %s, fmt renders %s", m.selfHash(), fmtSelfHash(m))
		}
		var m *Manifest
		err, alloc := verdict(func() (err error) {
			if m, err = DecodeManifest(bytes.NewReader(doc)); err == nil {
				err = check.Verify(m)
			}
			return err
		})
		if sentinelOf(t, "DecodeManifest+ManifestCheck.Verify", err, alloc, len(doc)) == nil {
			var again bytes.Buffer
			if err := m.Encode(&again); err != nil {
				t.Fatalf("a verified manifest does not encode: %v", err)
			}
			if back, err := DecodeManifest(&again); err != nil || back.ManifestSHA256 != m.ManifestSHA256 || back.VerifySelf() != nil {
				t.Errorf("a verified manifest does not survive its own encoding: %v", err)
			}
		}
		var ix *FragmentIndex
		err, alloc = verdict(func() (err error) {
			ix, err = DecodeFragmentIndex(bytes.NewReader(doc))
			return err
		})
		if sentinelOf(t, "DecodeFragmentIndex", err, alloc, len(doc)) == nil {
			if len(ix.Fragments) != ix.Shards {
				t.Errorf("an accepted index names %d fragments for %d shards", len(ix.Fragments), ix.Shards)
			}
			for _, name := range ix.Fragments {
				if filepath.Dir(filepath.Join("d", name)) != "d" {
					t.Errorf("an accepted index names fragment %q, which leaves its directory", name)
				}
			}
		}
	})
}

// FuzzJournal: loadJournal on arbitrary bytes, for goldenShard's plan and
// shard. It answers with ErrPlanVersion or ErrManifestIntegrity or with a
// recovery whose verified prefix lies within the input; a tail without a
// newline never hides a batch sealed before it; and what a recovery proves,
// the execution resuming from it keeps — a batch it then seals is the next
// one a reload finds, whatever tail the journal had. Seeds are the journal
// goldenJournals pins, torn and truncated.
func FuzzJournal(f *testing.F) {
	view := goldenShard(f)
	fingerprint := view.Plan.Fingerprint()
	journal := filepath.Join(f.TempDir(), "journal")
	crash := WorkerOptions{JournalPath: journal, BatchFiles: 8, FailAfterFiles: 20}
	if _, err := Execute(context.Background(), view, DirTarget(f.TempDir()), crash); !errors.Is(err, ErrSimulatedCrash) {
		f.Fatalf("injected crash: got %v, want ErrSimulatedCrash", err)
	}
	sealed, err := os.ReadFile(journal)
	if err != nil {
		f.Fatal(err)
	}
	if got := sha256Hex(sealed); got != goldenJournals[view.Shard] {
		f.Fatalf("the seed journal hashes to %s, pinned %s", got, goldenJournals[view.Shard])
	}
	f.Add(sealed)
	f.Add(append(append([]byte(nil), sealed...), `{"format_version":1,"plan_finger`...))
	f.Add(sealed[:len(sealed)-len(sealed)/4])

	load := func(t *testing.T, data []byte) (*journalRecovery, error) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := loadJournal(path, fingerprint, view.Shard)
		if err != nil {
			if !errors.Is(err, fsimage.ErrPlanVersion) && !errors.Is(err, fsimage.ErrManifestIntegrity) {
				t.Fatalf("loadJournal: an error of no sentinel: %v", err)
			}
			return nil, err
		}
		if rec.size > int64(len(data)) {
			t.Fatalf("loadJournal verified %d bytes of a %d-byte journal", rec.size, len(data))
		}
		return rec, nil
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := load(t, data)
		if err != nil {
			return
		}
		if i := bytes.LastIndexByte(data, '\n'); i+1 < len(data) {
			whole, err := load(t, data[:i+1])
			if err != nil {
				t.Fatalf("the journal without its torn tail does not load: %v", err)
			}
			if len(whole.digests) != len(rec.digests) || whole.size != rec.size {
				t.Fatalf("a torn tail changed the recovery: %d files sealed in %d bytes without it, %d in %d with it",
					len(whole.digests), whole.size, len(rec.digests), rec.size)
			}
		}
		path := filepath.Join(t.TempDir(), "journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := openJournal(path, fingerprint, view.Shard, rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append([]string{"next"}, 1); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := loadJournal(path, fingerprint, view.Shard)
		if err != nil {
			t.Fatalf("resumed after %d sealed files and sealed one more; the reload fails: %v", len(rec.digests), err)
		}
		if len(again.digests) != len(rec.digests)+1 || again.bytes != rec.bytes+1 {
			t.Fatalf("resumed after %d sealed files (%d bytes) and sealed one more; the reload found %d (%d bytes)",
				len(rec.digests), rec.bytes, len(again.digests), again.bytes)
		}
	})
}
