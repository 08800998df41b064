package distribute

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"impressions/internal/fsimage"
)

// The malformed-document table: one list of damaged shard documents, each
// run through every door a fragment comes in by — DecodeShardView, the one
// decoder of shard documents; PlanFile.View, a worker's door through the
// plan's index; and Merge, which replays the fragment beside the plan's
// intact ones — and every door must answer with the row's sentinel. A
// damage is a rewrite of the text of a valid document.

// shardKind is the kind of document every row damages, as the subtest names
// say it: a shard document, which is what a fragment is.
const shardKind = "shard"

// malformedCase is one row: the damage to a valid shard document and the
// sentinel the decoder must answer with.
type malformedCase struct {
	name   string
	damage func(doc string) string
	want   error
}

// swap replaces the first occurrence of old, which must be there.
func swap(old, new string) func(string) string {
	return func(doc string) string {
		if !strings.Contains(doc, old) {
			panic(fmt.Sprintf("malformed table: %q is not in the document", old))
		}
		return strings.Replace(doc, old, new, 1)
	}
}

// resub rewrites match number n of re through fn, which gets the submatches.
func resub(re string, n int, fn func(m []string) string) func(string) string {
	rx := regexp.MustCompile(re)
	return func(doc string) string {
		locs := rx.FindAllStringSubmatchIndex(doc, -1)
		if n >= len(locs) {
			panic(fmt.Sprintf("malformed table: %s matches %d times, want match %d", re, len(locs), n))
		}
		loc := locs[n]
		m := make([]string, len(loc)/2)
		for i := range m {
			m[i] = doc[loc[2*i]:loc[2*i+1]]
		}
		return doc[:loc[0]] + fn(m) + doc[loc[1]:]
	}
}

func constant(s string) func(string) string { return func(string) string { return s } }

// headerEnd is where the embedded plan header closes: the text from its
// closing brace to the opening bracket of the chunk array.
const headerEnd = `}},"records":[`

// shardTable rewrites the value of the header's "shards" member (with
// member = true, the whole `,"shards":[...]` member).
func shardTable(member bool, fn func(table string) string) func(string) string {
	return func(doc string) string {
		start := strings.Index(doc, `,"shards":[`)
		end := strings.Index(doc, headerEnd)
		if start < 0 || end < start {
			panic("malformed table: no shard table in the document")
		}
		if !member {
			start += len(`,"shards":`)
		}
		return doc[:start] + fn(doc[start:end]) + doc[end:]
	}
}

// shardEntry matches one row of the shard table's expectations.
const shardEntry = `"dirs":(\d+),"files":(\d+),"bytes":(\d+)\}`

// emptyImageDoc is a shard document of a plan with no directory at all:
// every count is zero, the stream is empty and the trailer seals it
// correctly.
func emptyImageDoc() string {
	hdr := `"format_version":5,"seed":1,"content_kind":"default","digest_algo":"` + fsimage.DigestVersion +
		`","files":0,"dirs":0,"bytes":0,"spec":{},"chunk_size":64,"shards":[{"index":0,"stream_key":"` +
		contentStreamKey + `","roots":[],"dirs":0,"files":0,"bytes":0},{"index":1,"stream_key":"` +
		contentStreamKey + `","roots":[],"dirs":0,"files":0,"bytes":0}]`
	chain := fsimage.NewChunkHashChain().Sum()
	return `{"view":{"format_version":5,"shard":1,"plan":{` + hdr +
		`}},"records":[],"trailer":{"chunks":0,"chains":["` + chain + `","` + chain + `"]}}`
}

// trailerChains rewrites the trailer's chains member: fn gets the list's
// entries as the text has them, quoted, and returns the member's new text,
// `,"chains":[...]` or nothing at all.
func trailerChains(fn func(entries []string) string) func(string) string {
	return func(doc string) string {
		start := strings.LastIndex(doc, `,"chains":[`)
		if start < 0 {
			panic("malformed table: no chains in the trailer")
		}
		end := start + strings.IndexByte(doc[start:], ']')
		return doc[:start] + fn(strings.Split(doc[start+len(`,"chains":[`):end], ",")) + doc[end+1:]
	}
}

// chainsOf renders a chains member.
func chainsOf(entries ...string) string { return `,"chains":[` + strings.Join(entries, ",") + `]` }

// otherHex turns the first hex digit of a quoted hash into another.
func otherHex(quoted string) string {
	const hex = "0123456789abcdef"
	return `"` + string(hex[(strings.IndexByte(hex, quoted[1])+1)%16]) + quoted[2:]
}

// asVersion3 rewrites the document into the shape format version 3 wrote:
// the whole stream's seal in the view, one chain in the trailer.
func asVersion3(doc string) string {
	doc = swap(`{"view":{"format_version":5,"shard":1,"plan":{"format_version":5`,
		`{"view":{"format_version":3,"shard":1,"plan_chunks":9,"image_sha256":"`+strings.Repeat("0", 64)+`","plan":{"format_version":3`)(doc)
	return trailerChains(func(e []string) string { return `,"records_sha256":` + e[1] })(doc)
}

// row is one case of the table.
func row(name string, damage func(string) string, want error) malformedCase {
	return malformedCase{name: name, damage: damage, want: want}
}

func malformedCases() []malformedCase {
	integrity, version, invalid := fsimage.ErrManifestIntegrity, fsimage.ErrPlanVersion, fsimage.ErrInvalidSpec
	bump := func(m []string) string {
		n, _ := strconv.Atoi(m[1])
		return strings.Replace(m[0], m[1], strconv.Itoa(n+1), 1)
	}
	setFiles := func(v string) func(m []string) string {
		return func(m []string) string { return `"dirs":` + m[1] + `,"files":` + v + `,"bytes":` + m[3] + `}` }
	}
	return []malformedCase{
		// Not a document at all.
		row("empty input", constant(""), integrity),
		row("not JSON", constant("hello"), integrity),
		row("a JSON array", constant("[1,2]"), integrity),
		row("a JSON object without the envelope", constant(`{"format_version":5,"seed":1}`), integrity),
		row("truncated inside the header", func(doc string) string { return doc[:100] }, integrity),
		row("truncated inside the stream", func(doc string) string { return doc[:len(doc)/2] }, integrity),
		row("truncated before the trailer", func(doc string) string { return doc[:strings.LastIndex(doc, `"trailer"`)-10] }, integrity),
		row("one byte after the closing brace", func(doc string) string { return doc + "x" }, integrity),
		row("a second value after the closing brace", func(doc string) string { return doc + "{}\n" }, integrity),

		// Version skew: the artifact is whole, this build cannot execute it.
		row("format_version 2", swap(`"plan":{"format_version":5`, `"plan":{"format_version":2`), version),
		row("shard document format_version 2", swap(`{"view":{"format_version":5`, `{"view":{"format_version":2`), version),
		row("a version 3 fragment", asVersion3, version),
		row("digest_algo x", swap(`"digest_algo":"`+fsimage.DigestVersion+`"`, `"digest_algo":"x"`), version),
		row("content_kind bogus", swap(`"content_kind":"default","digest_algo"`, `"content_kind":"bogus","digest_algo"`), version),
		row("stream_key zzz", swap(`"stream_key":"fork:materialize"`, `"stream_key":"zzz"`), version),
		row("stream_key of another stream", swap(`"stream_key":"fork:materialize"`, `"stream_key":"fork:somethingelse"`), version),
		row("stream_key escaped", swap(`"stream_key":"fork:materialize"`, `"stream_key":"fork:%6Daterialize"`), version),

		// Header totals.
		row("files 10^12", swap(`"files":400,"dirs":80`, `"files":1000000000000,"dirs":80`), integrity),
		row("negative files", swap(`"files":400,"dirs":80`, `"files":-400,"dirs":80`), integrity),
		row("negative dirs", swap(`"files":400,"dirs":80`, `"files":400,"dirs":-80`), integrity),
		row("negative bytes", resub(`"dirs":80,"bytes":(\d+)`, 0, func(m []string) string { return `"dirs":80,"bytes":-1` }), integrity),
		row("files is a string", swap(`"files":400,"dirs":80`, `"files":"400","dirs":80`), integrity),
		row("no directories", constant(emptyImageDoc()), integrity),

		// The shard table.
		row("shards []", shardTable(false, constant("[]")), integrity),
		row("shards missing", shardTable(true, constant("")), integrity),
		row("shard table out of order", swap(`"index":0,"stream_key"`, `"index":1,"stream_key"`), integrity),
		row("unknown cut root", resub(`"roots":\[(\d+),`, 0, func(m []string) string { return `"roots":[9999,` }), integrity),
		row("duplicated cut root", resub(`"roots":\[(\d+),(\d+),`, 0, func(m []string) string { return `"roots":[` + m[1] + `,` + m[1] + `,` }), integrity),
		row("cut root 0", resub(`"roots":\[(\d+),`, 0, func(m []string) string { return `"roots":[0,` }), integrity),
		row("shards[1].files 10^12", resub(shardEntry, 1, setFiles("1000000000000")), integrity),
		row("shards[1].files -1", resub(shardEntry, 1, setFiles("-1")), integrity),
		row("files and shards[1].files both 10^12 too many", func(doc string) string {
			doc = swap(`"files":400,"dirs":80`, `"files":1000000000400,"dirs":80`)(doc)
			return resub(shardEntry, 1, func(m []string) string { return setFiles("1000000000" + m[2])(m) })(doc)
		}, integrity),
		row("shards[0].files off by one", resub(shardEntry, 0, func(m []string) string {
			n, _ := strconv.Atoi(m[2])
			return `"dirs":` + m[1] + `,"files":` + strconv.Itoa(n+1) + `,"bytes":` + m[3] + `}`
		}), integrity),

		// The envelope around the stream.
		row("chunk array under another key", swap(`}},"records":[`, `}},"recordz":[`), integrity),
		row("a number in the chunk array", swap(`}},"records":[`, `}},"records":[7,`), integrity),
		row("a flipped byte in a record", swap(`"name":"dir00001"`, `"name":"dir00009"`), integrity),
		row("trailer renamed", swap(`],"trailer":{`, `],"trailor":{`), integrity),
		row("trailer missing", func(doc string) string { return doc[:strings.LastIndex(doc, `,"trailer":`)] + "}\n" }, integrity),
		row("trailer chunk count off by one", resub(`"trailer":\{"chunks":(\d+)`, 0, bump), integrity),
		row("trailer chains missing", trailerChains(func([]string) string { return "" }), integrity),
		row("trailer chains null", trailerChains(func([]string) string { return `,"chains":null` }), integrity),
		row("trailer chains one entry short", trailerChains(func(e []string) string { return chainsOf(e[:len(e)-1]...) }), integrity),
		row("trailer chains one entry extra", trailerChains(func(e []string) string { return chainsOf(append(e, e[0])...) }), integrity),
		row("trailer chains with a number", trailerChains(func(e []string) string { return chainsOf(e[0], "7", e[2]) }), integrity),
		row("trailer chain of another stream", trailerChains(func(e []string) string { return chainsOf(e[0], otherHex(e[1]), e[2]) }), integrity),

		// The view around the plan header.
		row("plan null", func(doc string) string {
			return doc[:strings.Index(doc, `"plan":{`)] + `"plan":null` + doc[strings.Index(doc, headerEnd)+1:]
		}, integrity),
		row("embedded shard -1", swap(`"shard":1,"plan"`, `"shard":-1,"plan"`), invalid),
		row("embedded shard 99", swap(`"shard":1,"plan"`, `"shard":99,"plan"`), invalid),
		row("embedded shard is another shard's", swap(`"shard":1,"plan"`, `"shard":0,"plan"`), integrity),
	}
}

// validDocument is the valid document the table damages: fragment 1 of
// testConfig() as a 3-shard plan with 64-record chunks.
func validDocument(tb testing.TB) (string, *ShardView) {
	tb.Helper()
	p := planRoundTrip(tb, testConfig(), 3)
	return string(p.frags[1]), p.view(tb, 1)
}

// records is a record stream held as two slices: the sink that collects one
// and the source that replays it.
type records struct {
	dirs  []fsimage.DirRecord
	files []fsimage.File
}

func (l *records) AddDir(d fsimage.DirRecord) error { l.dirs = append(l.dirs, d); return nil }
func (l *records) AddFile(f fsimage.File) error     { l.files = append(l.files, f); return nil }
func (l *records) replay(sink fsimage.RecordSink) error {
	for _, d := range l.dirs {
		if err := sink.AddDir(d); err != nil {
			return err
		}
	}
	for _, f := range l.files {
		if err := sink.AddFile(f); err != nil {
			return err
		}
	}
	return nil
}

// forgedCases damage the records themselves and seal the damage: the
// document is written by this package's own writer, so every chunk hash, the
// chain and the trailer are right and only the record checks stand between
// the forgery and a worker. Each forgery edits the valid stream (shard 1's
// 179 files); mid is a file in the middle of it.
var forgedCases = []struct {
	name  string
	forge func(l *records, mid int)
}{
	{"two files out of order", func(l *records, mid int) { l.files[mid], l.files[mid+1] = l.files[mid+1], l.files[mid] }},
	{"a file twice", func(l *records, mid int) { l.files[mid+1] = l.files[mid] }},
	{"a file with a negative ID", func(l *records, mid int) { l.files[0].ID = -1 }},
	{"a file past the plan's count", func(l *records, mid int) { l.files[len(l.files)-1].ID = 1 << 30 }},
	{"one file more than promised", func(l *records, mid int) {
		f := l.files[len(l.files)-1]
		f.ID++
		l.files = append(l.files, f)
	}},
	{"one file fewer than promised", func(l *records, mid int) { l.files = l.files[:len(l.files)-1] }},
	{"a file one byte larger", func(l *records, mid int) { l.files[mid].Size++ }},
	{"a file of negative size", func(l *records, mid int) { l.files[mid].Size = -1 }},
	{"a file at the wrong depth", func(l *records, mid int) { l.files[mid].Depth++ }},
	{"a file in an unknown directory", func(l *records, mid int) { l.files[mid].DirID = 9999 }},
	{"a file in directory -1", func(l *records, mid int) { l.files[mid].DirID = -1 }},
	{"a file that steps back a directory", func(l *records, mid int) {
		// The last file moves into the first one's directory, of the same
		// shard and an earlier ID than its own.
		last, first := &l.files[len(l.files)-1], l.files[0]
		last.DirID, last.Depth = first.DirID, first.Depth
	}},
	{"a file named a/b", func(l *records, mid int) { l.files[mid].Name = "a/b" }},
	{"a file without a name", func(l *records, mid int) { l.files[mid].Name = "" }},
	{"a file named ..", func(l *records, mid int) { l.files[mid].Name = ".." }},
	{"a file named .", func(l *records, mid int) { l.files[mid].Name = "." }},
	{"a directory named ..", func(l *records, mid int) { l.dirs[5].Name = ".." }},
	{"a directory named .", func(l *records, mid int) { l.dirs[5].Name = "." }},
	{"a directory named a/b", func(l *records, mid int) { l.dirs[5].Name = "a/b" }},
	{"a directory without a name", func(l *records, mid int) { l.dirs[5].Name = "" }},
	{"a file moved to another shard's directory", func(l *records, mid int) {
		// Directory 3 is a cut root of shard 0 at depth 2; the stream's middle
		// file is shard 1's or 2's.
		l.files[mid].DirID, l.files[mid].Depth = 3, 3
	}},
	{"no root directory", func(l *records, mid int) { l.dirs = l.dirs[1:] }},
	{"a directory under an unknown parent", func(l *records, mid int) { l.dirs[5].Parent = 9999 }},
	{"a directory under itself", func(l *records, mid int) { l.dirs[5].Parent = 5 }},
	{"directory IDs with a gap", func(l *records, mid int) { l.dirs[5].ID = 6 }},
	{"one directory fewer than promised", func(l *records, mid int) { l.dirs = l.dirs[:len(l.dirs)-1] }},
	{"no records at all", func(l *records, mid int) { *l = records{} }},
}

// sealRecords seals the view's records, as edit leaves them, into the view's
// shard document, under the view's plan chains with its own entry the chain
// the edited records make: every hash in it is right.
func sealRecords(tb testing.TB, view *ShardView, edit func(l *records)) []byte {
	tb.Helper()
	var l records
	if err := (&fsimage.Image{Tree: view.Tree, Files: view.Files}).StreamRecords(&l); err != nil {
		tb.Fatal(err)
	}
	edit(&l)
	return writeDocument(tb, view.Plan, view.Shard, &l)
}

// writeDocument writes shard's document of p with docWriter: l's records,
// sealed under p's chains (none, for a header without them) with its own
// entry the chain its records make.
func writeDocument(tb testing.TB, p *Plan, shard int, l *records) []byte {
	tb.Helper()
	var doc bytes.Buffer
	sealer := fsimage.NewChunkSealer(1)
	defer sealer.Close()
	d, err := newDocWriter(&doc, p, shard, sealer)
	if err == nil {
		err = l.replay(d)
	}
	if err == nil {
		err = d.enc.Close()
	}
	if err == nil {
		chains := make([]string, len(p.Shards))
		copy(chains, p.Chains)
		chains[shard] = d.enc.ChainHash()
		err = d.Close(chains)
	}
	if err != nil {
		tb.Fatalf("sealing: %v", err)
	}
	return doc.Bytes()
}

// sealedUnder rewrites a document's trailer to seal its plan with chains.
func sealedUnder(doc []byte, chains []string) []byte {
	raw, err := json.Marshal(chains)
	if err != nil {
		panic(err)
	}
	return []byte(trailerChains(func([]string) string { return `,"chains":` + string(raw) })(string(doc)))
}

// chainsIn returns the chains a document's trailer seals its plan with.
func chainsIn(tb testing.TB, doc []byte) []string {
	tb.Helper()
	var d struct{ Trailer struct{ Chains []string } }
	if err := json.Unmarshal(doc, &d); err != nil {
		tb.Fatal(err)
	}
	return d.Trailer.Chains
}

// forgedDocuments seals every forgery into a shard document.
func forgedDocuments(tb testing.TB) []malformedDocument {
	tb.Helper()
	_, view := validDocument(tb)
	var out []malformedDocument
	for _, c := range forgedCases {
		doc := sealRecords(tb, view, func(l *records) { c.forge(l, len(l.files)/2) })
		out = append(out, malformedDocument{name: "forged: " + c.name + " (" + shardKind + ")", doc: doc, want: fsimage.ErrManifestIntegrity})
	}
	return out
}

// malformedDocument is one damaged document of the table.
type malformedDocument struct {
	name string // "<case> (shard)"
	doc  []byte
	want error
}

// malformedDocuments applies every case to the valid document.
func malformedDocuments(tb testing.TB) []malformedDocument {
	valid, _ := validDocument(tb)
	var out []malformedDocument
	for _, c := range malformedCases() {
		out = append(out, malformedDocument{name: c.name + " (" + shardKind + ")", doc: []byte(c.damage(valid)), want: c.want})
	}
	return append(out, forgedDocuments(tb)...)
}

// door is one reader a fragment comes in by: open reads doc as the plan's
// fragment 1, and read is how many bytes of other fragments it reads too.
type door struct {
	name string
	open func(doc []byte) error
	read int
}

// fragmentDoors are the doors of validDocument's plan with doc in place of
// its fragment 1: DecodeShardView of doc alone; a worker's PlanFile.View of
// shard 1 through the plan's index, doc written where the index files
// fragment 1; and Merge of the plan's fragments, doc between its two intact
// neighbours.
func fragmentDoors(tb testing.TB) []door {
	tb.Helper()
	index, ix := writePlanFiles(tb, 3)
	fragment1 := filepath.Join(filepath.Dir(index), ix.Fragments[1])
	frags := planRoundTrip(tb, testConfig(), 3).frags
	return []door{
		{name: "DecodeShardView", open: func(doc []byte) error {
			_, err := DecodeShardView(bytes.NewReader(doc))
			return err
		}},
		{name: "PlanFile.View", open: func(doc []byte) error {
			if err := os.WriteFile(fragment1, doc, 0o644); err != nil {
				return err
			}
			pf, err := OpenPlanFile(index)
			if err == nil {
				_, err = pf.View(1)
			}
			return err
		}},
		{name: "Merge", read: len(frags[0]) + len(frags[2]), open: func(doc []byte) error {
			_, err := Merge(fragmentSource(context.Background(), [][]byte{frags[0], doc, frags[2]}), nil)
			return err
		}},
	}
}

// sentinels are the three typed errors a decoder may answer with.
var sentinels = []error{fsimage.ErrManifestIntegrity, fsimage.ErrPlanVersion, fsimage.ErrInvalidSpec}

// allocBound is what rejecting (or accepting) a document of n bytes may
// allocate in total: a constant plus a multiple of what was actually read,
// never a function of a count the document merely claims.
func allocBound(n int) uint64 { return 4<<20 + 64*uint64(n) }

// verdict runs fn, turning a panic into an error no sentinel matches, and
// reports what it allocated.
func verdict(fn func() error) (err error, alloc uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("PANIC: %v", r)
			}
		}()
		err = fn()
	}()
	runtime.ReadMemStats(&after)
	return err, after.TotalAlloc - before.TotalAlloc
}

// checkRejection asserts the table's contract on one rejection: the wanted
// sentinel and no other, one package prefix, a bounded allocation.
func checkRejection(t *testing.T, err error, want error, alloc uint64, n int) {
	t.Helper()
	if err == nil {
		t.Errorf("accepted; want %v", want)
		return
	}
	for _, s := range sentinels {
		if errors.Is(err, s) != (s == want) {
			t.Errorf("errors.Is(err, %q) = %t; want exactly %q\n\terr: %v", s, s != want, want, err)
		}
	}
	if strings.Contains(err.Error(), "distribute: distribute:") {
		t.Errorf("doubled package prefix: %v", err)
	}
	if alloc > allocBound(n) {
		t.Errorf("allocated %d bytes rejecting a %d-byte document; bound %d", alloc, n, allocBound(n))
	}
}

// TestMalformedDocuments: a damaged fragment meets the same verdict
// whichever door it comes in by.
func TestMalformedDocuments(t *testing.T) {
	doors := fragmentDoors(t)
	valid, _ := validDocument(t)
	for _, d := range doors {
		n := len(valid) + d.read
		if err, alloc := verdict(func() error { return d.open([]byte(valid)) }); err != nil || alloc > allocBound(n) {
			t.Fatalf("%s on the valid document: err %v, %d bytes allocated (bound %d)", d.name, err, alloc, allocBound(n))
		}
	}
	for _, m := range malformedDocuments(t) {
		for _, d := range doors {
			t.Run(m.name+"/"+d.name, func(t *testing.T) {
				err, alloc := verdict(func() error { return d.open(m.doc) })
				checkRejection(t, err, m.want, alloc, len(m.doc)+d.read)
			})
		}
	}
}

// TestMalformedRequests: asking a valid plan for a shard it does not have is
// the request's fault, and says so.
func TestMalformedRequests(t *testing.T) {
	index, _ := writePlanFiles(t, 3)
	pf := openPlanFile(t, index)
	for _, shard := range []int{-1, 3, 99} {
		err, alloc := verdict(func() error {
			_, err := pf.View(shard)
			return err
		})
		t.Run(fmt.Sprintf("PlanFile.View(%d)", shard), func(t *testing.T) {
			checkRejection(t, err, fsimage.ErrInvalidSpec, alloc, 0)
		})
	}
}

// malformedLeaves are damaged manifests and fragment indexes: the two
// single-object artifacts, each read by one decoder.
func malformedLeaves(tb testing.TB) (manifests, indexes []malformedDocument) {
	tb.Helper()
	p := planRoundTrip(tb, testConfig(), 2)
	m, err := executeShard(p, 0, tb.TempDir(), WorkerOptions{MetadataOnly: true})
	if err != nil {
		tb.Fatalf("Execute: %v", err)
	}
	var mdoc, idoc bytes.Buffer
	if err := m.Encode(&mdoc); err != nil {
		tb.Fatal(err)
	}
	ix := &FragmentIndex{FormatVersion: FragmentIndexVersion, Fingerprint: p.Plan.Fingerprint(), Shards: 2,
		Files: p.Plan.Files, Dirs: p.Plan.Dirs, Bytes: p.Plan.Bytes, Fragments: []string{"p.frag0", "p.frag1"}}
	if err := ix.Encode(&idoc); err != nil {
		tb.Fatal(err)
	}
	integrity := fsimage.ErrManifestIntegrity
	damages := []struct {
		name   string
		damage func(string) string
	}{
		{"empty input", constant("")},
		{"not JSON", constant("hello")},
		{"a JSON array", constant("[1,2]")},
		{"truncated", func(doc string) string { return doc[:len(doc)/2] }},
		{"one byte after the closing brace", func(doc string) string { return doc + "x" }},
		{"a second value after the closing brace", func(doc string) string { return doc + "{}\n" }},
		{"shard is a string", resub(`"shards?": ?(\d+)`, 0, func(m []string) string { return strings.Replace(m[0], m[1], `"`+m[1]+`"`, 1) })},
	}
	for _, d := range damages {
		manifests = append(manifests, malformedDocument{name: d.name, doc: []byte(d.damage(mdoc.String())), want: integrity})
		indexes = append(indexes, malformedDocument{name: d.name, doc: []byte(d.damage(idoc.String())), want: integrity})
	}
	indexes = append(indexes,
		malformedDocument{name: "format_version 2", doc: []byte(swap(`"format_version": 1`, `"format_version": 2`)(idoc.String())), want: fsimage.ErrPlanVersion},
		malformedDocument{name: "a fragment outside the directory", doc: []byte(swap(`"p.frag1"`, `"../p.frag1"`)(idoc.String())), want: integrity},
		malformedDocument{name: "fewer fragments than shards", doc: []byte(swap(`"shards": 2`, `"shards": 3`)(idoc.String())), want: integrity},
	)
	return manifests, indexes
}

// TestMalformedLeaves: DecodeManifest and DecodeFragmentIndex type what they
// cannot parse and read to the end of their input.
func TestMalformedLeaves(t *testing.T) {
	manifests, indexes := malformedLeaves(t)
	for _, m := range manifests {
		t.Run("DecodeManifest/"+m.name, func(t *testing.T) {
			err, alloc := verdict(func() error { _, err := DecodeManifest(bytes.NewReader(m.doc)); return err })
			checkRejection(t, err, m.want, alloc, len(m.doc))
		})
	}
	for _, m := range indexes {
		t.Run("DecodeFragmentIndex/"+m.name, func(t *testing.T) {
			err, alloc := verdict(func() error { _, err := DecodeFragmentIndex(bytes.NewReader(m.doc)); return err })
			checkRejection(t, err, m.want, alloc, len(m.doc))
		})
	}
}
