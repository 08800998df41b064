package distribute

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"impressions/internal/fsimage"
)

// The two readers of bytes this program writes at volume, shard documents
// and manifests, take only what their writers write. The two fuzz targets
// hold each to a round trip both ways on any input: what the reader
// accepts, the writer writes again byte for byte from what was read; and
// what the writer writes for the values encoding/json finds in the input
// reads back to those values.

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

// readAll reads doc with readDocument into a sink that keeps every record,
// and returns the header, the shard and the records it read.
func readAll(doc []byte) (*Plan, int, *records, error) {
	var (
		hdr   *Plan
		shard = -1
		recs  records
	)
	_, err := readDocument(bytes.NewReader(doc), func(p *Plan, s int) (fsimage.RecordSink, error) {
		hdr, shard = p, s
		return &recs, nil
	})
	return hdr, shard, &recs, err
}

// FuzzDocumentReader: readDocument's round trip, on arbitrary bytes as they
// come and resealed (see reseal). Seeds are FuzzShardDocument's and
// FuzzFragmentSource's, their committed corpora among them.
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
		for _, doc := range [][]byte{doc, reseal(doc)} {
			if doc == nil {
				continue
			}
			hdr, shard, recs, err := readAll(doc)
			if sentinelOf(t, "readDocument", err, 0, 0) == nil {
				if again := writeDocument(t, hdr, shard, recs); !bytes.Equal(again, doc) {
					t.Fatalf("readDocument read\n%s\nwhich docWriter writes as\n%s", doc, again)
				}
			}
			var values struct {
				View    shardWireHeader
				Records []fsimage.Chunk
			}
			if json.Unmarshal(doc, &values) != nil || values.View.Plan == nil || checkHeader(values.View.Plan) != nil ||
				values.View.Shard < 0 || values.View.Shard >= len(values.View.Plan.Shards) {
				continue
			}
			var l records
			for _, c := range values.Records {
				for _, d := range c.Dirs {
					if d.Bias == 0 && math.Signbit(d.Bias) {
						continue // written as +0, which hashes differently
					}
					l.dirs = append(l.dirs, d)
				}
				l.files = append(l.files, c.Files...)
			}
			written := writeDocument(t, values.View.Plan, values.View.Shard, &l)
			hdr, shard, recs, err = readAll(written)
			if err != nil {
				t.Fatalf("docWriter wrote\n%s\nwhich does not read back: %v", written, err)
			}
			hdr.Chains = nil
			if shard != values.View.Shard || !reflect.DeepEqual(hdr, values.View.Plan) ||
				len(recs.dirs)+len(l.dirs) > 0 && !reflect.DeepEqual(recs.dirs, l.dirs) ||
				len(recs.files)+len(l.files) > 0 && !reflect.DeepEqual(recs.files, l.files) {
				t.Fatalf("docWriter wrote shard %d of %+v, which reads back as shard %d of %+v, or with other records", values.View.Shard, values.View.Plan, shard, hdr)
			}
		}
	})
}

// FuzzManifestReader: DecodeManifest's round trip on arbitrary bytes, and
// Encode against json.Encoder on every manifest encoding/json decodes: the
// same bytes. Seeds are FuzzManifest's, its committed corpus among them.
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
		m, err := DecodeManifest(bytes.NewReader(doc))
		if sentinelOf(t, "DecodeManifest", err, 0, 0) == nil {
			var again bytes.Buffer
			if err := m.Encode(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), doc) {
				t.Fatalf("DecodeManifest read\n%q\nwhich Encode writes as\n%q", doc, again.Bytes())
			}
		}
		var values Manifest
		if json.Unmarshal(doc, &values) != nil {
			return
		}
		var enc, oracle bytes.Buffer
		if err := values.Encode(&enc); err != nil {
			t.Fatal(err)
		}
		if err := json.NewEncoder(&oracle).Encode(&values); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), oracle.Bytes()) {
			t.Fatalf("Encode writes\n%q\njson.Encoder\n%q", enc.Bytes(), oracle.Bytes())
		}
		back, err := DecodeManifest(&enc)
		if err != nil || !reflect.DeepEqual(back, &values) {
			t.Fatalf("Encode wrote\n%q\nwhich reads back as %+v, %v; want %+v", oracle.Bytes(), back, err, values)
		}
	})
}
