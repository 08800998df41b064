package distribute

import (
	"bytes"
	"context"
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
// golden documents, testdata/handbuilt_shard.json and every row of the
// table; what fuzzing found since is under testdata/fuzz/. A mutated record
// stops at its chunk's hash, so each input is also run resealed: with the
// hashes, the count and the chain recomputed over whatever records it
// carries, which is how the fuzzer reaches the record checks behind them.

// reseal rewrites a document so that every chunk hash, the trailer's count
// and its chain are right for the records the document carries, leaving the
// head, the records and the chunk indices as they are. It returns nil for
// input that is not an object with an array of chunks in it.
func reseal(doc []byte, kind docKind) []byte {
	var envelope map[string]json.RawMessage
	var chunks []fsimage.Chunk
	if json.Unmarshal(doc, &envelope) != nil || envelope[kind.head] == nil || json.Unmarshal(envelope[kind.array], &chunks) != nil {
		return nil
	}
	out := fmt.Appendf(nil, "{%q:%s,%q:[", kind.head, envelope[kind.head], kind.array)
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
	return fmt.Appendf(out, "],\"trailer\":{\"chunks\":%d,%q:%q}}", len(chunks), kind.chain, chain.Sum())
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
	var doc bytes.Buffer
	if err := v.Encode(&doc); err != nil {
		t.Fatalf("an accepted view does not encode: %v", err)
	}
	again, err := DecodeShardView(bytes.NewReader(doc.Bytes()))
	if err != nil {
		t.Fatalf("an accepted view's document does not decode: %v\n%s", err, doc.Bytes())
	}
	if got, want := again.Plan.Fingerprint(), v.Plan.Fingerprint(); got != want {
		t.Errorf("fingerprint %s after the round trip, %s before", got, want)
	}
	if again.Shard != v.Shard || len(again.Dirs) != len(v.Dirs) || len(again.Files) != len(v.Files) {
		t.Errorf("shard %d with %d dirs, %d files after the round trip; shard %d with %d, %d before",
			again.Shard, len(again.Dirs), len(again.Files), v.Shard, len(v.Dirs), len(v.Files))
	}
}

// goldenDocuments are the plan document and shard document 2 of a pinned
// config (TestGoldenWireDocuments, TestGoldenEscapedDocuments).
func goldenDocuments(tb testing.TB, req PlanRequest) (plan, shard []byte) {
	tb.Helper()
	var doc, shardDoc bytes.Buffer
	if _, err := req.Stream(context.Background(), &doc); err != nil {
		tb.Fatalf("Stream: %v", err)
	}
	view, err := DecodePlanShard(bytes.NewReader(doc.Bytes()), 2)
	if err != nil {
		tb.Fatalf("DecodePlanShard: %v", err)
	}
	if err := view.Encode(&shardDoc); err != nil {
		tb.Fatalf("ShardView.Encode: %v", err)
	}
	return doc.Bytes(), shardDoc.Bytes()
}

// FuzzPlanDocument: both doors of a plan document give one verdict. Merge
// has no shard to ask for, so DecodePlanShard may add ErrInvalidSpec for a
// shard the plan lacks; nothing else may differ.
func FuzzPlanDocument(f *testing.F) {
	for _, cfg := range []PlanRequest{{Config: testConfig(), MaxShards: 3, ChunkSize: 64}, {Config: escapeConfig(), MaxShards: 3, ChunkSize: 64}} {
		plan, _ := goldenDocuments(f, cfg)
		f.Add(plan, uint8(2))
	}
	for _, m := range malformedDocuments(f) {
		if m.kind == planKind {
			f.Add(m.doc, uint8(1))
		}
	}
	f.Fuzz(func(t *testing.T, doc []byte, shard uint8) {
		checkPlanDoors(t, doc, shard)
		if sealed := reseal(doc, planDoc); sealed != nil {
			checkPlanDoors(t, sealed, shard)
		}
	})
}

func checkPlanDoors(t *testing.T, doc []byte, shard uint8) {
	t.Helper()
	var merged *MergeResult
	err, alloc := verdict(func() (err error) {
		merged, err = Merge(DocumentSource(bytes.NewReader(doc)), nil)
		return err
	})
	whole := sentinelOf(t, "Merge", err, alloc, len(doc))
	var view *ShardView
	err, alloc = verdict(func() (err error) {
		view, err = DecodePlanShard(bytes.NewReader(doc), int(shard))
		return err
	})
	pruned := sentinelOf(t, "DecodePlanShard", err, alloc, len(doc))
	switch {
	case whole == nil && pruned == nil:
		roundTrip(t, view)
	case whole == nil:
		if pruned != fsimage.ErrInvalidSpec || int(shard) < len(merged.Plan.Shards) {
			t.Errorf("Merge accepted a %d-shard plan, DecodePlanShard(%d) says %v", len(merged.Plan.Shards), shard, err)
		}
	case pruned != whole && pruned != fsimage.ErrInvalidSpec:
		t.Errorf("Merge says %q, DecodePlanShard(%d) says %v", whole, shard, err)
	}
}

// FuzzShardDocument: DecodeShardView on arbitrary bytes.
func FuzzShardDocument(f *testing.F) {
	for _, cfg := range []PlanRequest{{Config: testConfig(), MaxShards: 3, ChunkSize: 64}, {Config: escapeConfig(), MaxShards: 3, ChunkSize: 64}} {
		_, shard := goldenDocuments(f, cfg)
		f.Add(shard)
	}
	hand, err := os.ReadFile(filepath.Join("testdata", "handbuilt_shard.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hand)
	for _, m := range malformedDocuments(f) {
		if m.kind == shardKind {
			f.Add(m.doc)
		}
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		for _, doc := range [][]byte{doc, reseal(doc, shardDoc)} {
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

// FuzzManifest: the two single-object artifacts. Bytes that decode as a
// manifest are verified against a fixed 2-shard plan (ManifestCheck), which must end in a
// sentinel or in a manifest that encodes back to a document of the same
// seal; bytes that decode as a fragment index must name fragments inside the
// index's directory, one per shard.
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
