package distribute

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"impressions/internal/fsimage"
)

// The two readers of bytes this program writes at volume, shard documents
// and manifests, are held to encoding/json, which read both until the
// hand-written readers replaced it: the oracles below are those decoders as
// they were, and the two fuzz targets require the same answer from both on
// any input — the same records, chain and header, or the same sentinel.

// oracleReadDocument is readDocument on encoding/json's Decoder: the
// envelope through its Token API, every chunk through Decode.
func oracleReadDocument(r io.Reader, open func(hdr *Plan, shard int) (fsimage.RecordSink, error)) (string, error) {
	dec := json.NewDecoder(bufio.NewReaderSize(r, 64*1024))
	damaged := func(format string, a ...any) error {
		return fmt.Errorf("distribute: shard document: %s (%w)", fmt.Sprintf(format, a...), fsimage.ErrManifestIntegrity)
	}
	next := func(want json.Token) error {
		if tok, err := dec.Token(); err != nil {
			return damaged("expected %q: %v", fmt.Sprint(want), err)
		} else if tok != want {
			return damaged("expected %q, got %q", fmt.Sprint(want), fmt.Sprint(tok))
		}
		return nil
	}
	value := func(what string, v any) error {
		if err := dec.Decode(v); err != nil {
			return damaged("decoding %s: %v", what, err)
		}
		return nil
	}

	if err := next(json.Delim('{')); err != nil {
		return "", err
	}
	if err := next("view"); err != nil {
		return "", err
	}
	var hdr shardWireHeader
	if err := value("view header", &hdr); err != nil {
		return "", err
	}
	if hdr.FormatVersion != FormatVersion {
		return "", fmt.Errorf("distribute: shard document format v%d (%w)", hdr.FormatVersion, fsimage.ErrPlanVersion)
	}
	p := hdr.Plan
	if p == nil {
		return "", damaged("the view carries no plan header")
	}
	if err := checkHeader(p); err != nil {
		return "", err
	}
	sink, err := open(p, hdr.Shard)
	if err != nil {
		return "", err
	}
	if err := next("records"); err != nil {
		return "", err
	}
	if err := next(json.Delim('[')); err != nil {
		return "", err
	}
	cdec := fsimage.NewChunkDecoder(sink)
	var c fsimage.Chunk
	var dirChain string
	for dec.More() {
		c = fsimage.Chunk{}
		if err := dec.Decode(&c); err != nil {
			return "", damaged("decoding chunk %d: %v", cdec.Chunks(), err)
		}
		if dirChain == "" && len(c.Files) > 0 {
			dirChain = cdec.ChainHash()
		}
		if err := cdec.AddChunk(&c); err != nil {
			return "", err
		}
	}
	if err := next(json.Delim(']')); err != nil {
		return "", err
	}
	if err := next("trailer"); err != nil {
		return "", err
	}
	var trailer struct {
		Chunks *int     `json:"chunks"`
		Chains []string `json:"chains"`
	}
	if err := value("trailer", &trailer); err != nil {
		return "", err
	}
	if err := next(json.Delim('}')); err != nil {
		return "", err
	}
	if tok, err := dec.Token(); err != io.EOF {
		return "", damaged("input goes on after the closing brace (%v, %v)", tok, err)
	}
	if n := cdec.Chunks(); trailer.Chunks == nil || *trailer.Chunks != n {
		return "", damaged("the trailer does not promise the %d chunks the stream carried", n)
	}
	if len(trailer.Chains) != len(p.Shards) {
		return "", damaged("the trailer seals %d fragments, the plan has %d shards", len(trailer.Chains), len(p.Shards))
	}
	chain := cdec.ChainHash()
	if hdr.Shard < 0 || hdr.Shard >= len(p.Shards) || trailer.Chains[hdr.Shard] != chain {
		return "", damaged("chain hash mismatch")
	}
	p.Chains = trailer.Chains
	return cmp.Or(dirChain, chain), nil
}

// oracleDecodeManifest is DecodeManifest on encoding/json.
func oracleDecodeManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	if err := decodeJSONArtifact(r, "manifest", &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// sameVerdict fails the test unless two errors are both nil or wrap the
// same one sentinel.
func sameVerdict(t *testing.T, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || sentinelOf(t, "reader", got, 0, 0) != sentinelOf(t, "oracle", want, 0, 0) {
		t.Fatalf("the reader says %v; encoding/json says %v", got, want)
	}
}

// corpus returns the inputs committed under testdata/fuzz/ for a fuzz
// target of one []byte argument.
func corpus(tb testing.TB, target string) [][]byte {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		if v, err := strconv.Unquote(strings.TrimSuffix(lit, ")")); ok && err == nil {
			out = append(out, []byte(v))
		} else {
			tb.Fatalf("%s: not a []byte corpus entry", path)
		}
	}
	return out
}

// readBoth reads doc with readDocument and with its oracle, each into a
// sink that keeps every record, and requires the same verdict, the same
// records (delivered before a failure, too), and on success the same
// directory chain, shard and sealed header.
func readBoth(t *testing.T, doc []byte) {
	t.Helper()
	type result struct {
		recs  records
		hdr   *Plan
		shard int
		chain string
		err   error
	}
	read := func(reader func(io.Reader, func(*Plan, int) (fsimage.RecordSink, error)) (string, error)) *result {
		res := &result{shard: -1}
		res.chain, res.err = reader(bytes.NewReader(doc), func(hdr *Plan, shard int) (fsimage.RecordSink, error) {
			res.hdr, res.shard = hdr, shard
			return &res.recs, nil
		})
		return res
	}
	got, want := read(readDocument), read(oracleReadDocument)
	sameVerdict(t, got.err, want.err)
	if len(got.recs.dirs)+len(want.recs.dirs) > 0 && !reflect.DeepEqual(got.recs.dirs, want.recs.dirs) ||
		len(got.recs.files)+len(want.recs.files) > 0 && !reflect.DeepEqual(got.recs.files, want.recs.files) {
		t.Fatalf("the reader delivered %d dirs, %d files; encoding/json %d, %d, not the same",
			len(got.recs.dirs), len(got.recs.files), len(want.recs.dirs), len(want.recs.files))
	}
	if got.shard != want.shard || !reflect.DeepEqual(got.hdr, want.hdr) {
		t.Fatalf("the reader opened shard %d of %+v; encoding/json shard %d of %+v", got.shard, got.hdr, want.shard, want.hdr)
	}
	if got.chain != want.chain {
		t.Fatalf("the reader returns directory chain %q; encoding/json %q", got.chain, want.chain)
	}
}

// FuzzDocumentReader: readDocument and its encoding/json oracle on arbitrary
// bytes, as they come and resealed (see reseal). Seeds are
// FuzzShardDocument's and FuzzFragmentSource's, their committed corpora
// among them.
func FuzzDocumentReader(f *testing.F) {
	for _, cfg := range []PlanRequest{{Config: testConfig(), MaxShards: 3, ChunkSize: 64}, {Config: escapeConfig(), MaxShards: 3, ChunkSize: 64}} {
		_, frags := fragmentBuffers(f, cfg)
		f.Add(frags[1])
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
	for _, target := range []string{"FuzzShardDocument", "FuzzFragmentSource"} {
		for _, doc := range corpus(f, target) {
			f.Add(doc)
		}
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		readBoth(t, doc)
		if sealed := reseal(doc); sealed != nil {
			readBoth(t, sealed)
		}
	})
}

// FuzzManifestReader: DecodeManifest and its encoding/json oracle on
// arbitrary bytes, and Encode and json.Encoder on every manifest the oracle
// decodes: the same bytes. Seeds are FuzzManifest's, its committed corpus
// among them.
func FuzzManifestReader(f *testing.F) {
	p := planRoundTrip(f, testConfig(), 2)
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
	for _, doc := range corpus(f, "FuzzManifest") {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		got, gotErr := DecodeManifest(bytes.NewReader(doc))
		want, wantErr := oracleDecodeManifest(bytes.NewReader(doc))
		sameVerdict(t, gotErr, wantErr)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("the reader decodes %+v; encoding/json %+v", got, want)
		}
		if want == nil {
			return
		}
		var enc, oracle bytes.Buffer
		if err := want.Encode(&enc); err != nil {
			t.Fatal(err)
		}
		if err := json.NewEncoder(&oracle).Encode(want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), oracle.Bytes()) {
			t.Fatalf("Encode writes\n%q\njson.Encoder\n%q", enc.Bytes(), oracle.Bytes())
		}
	})
}
