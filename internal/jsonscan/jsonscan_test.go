package jsonscan

import (
	"bufio"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// scanner reads text one byte per Read behind the smallest buffer bufio
// allows, so every token crosses the window edge somewhere.
func scanner(text string) *Scanner {
	return New(bufio.NewReaderSize(iotest.OneByteReader(strings.NewReader(text)), 16))
}

// values are JSON texts, valid and not, for the field decoders.
var values = []string{
	`0`, `-0`, `7`, `-12`, `01`, `-01`, `1.5`, `1.`, `.5`, `-`, `+1`, `1e3`, `1E+3`, `1e-3`, `1e`, `1e+`, `0.0e0`,
	`9223372036854775807`, `9223372036854775808`, `-9223372036854775808`, `-9223372036854775809`,
	`2147483648`, `1e400`, `-1e400`, `1e-400`, `123456789012345678901234567890`, `1.5x`, `12 3`,
	`""`, `"abc"`, `"a b&<>"`, `"a\"b"`, `"a\\b"`, `"\/"`, `"\u00e9"`, `"é"`, `"\ud800"`, `"\ud83d\ude00"`,
	"\"\xff\xfe\"", "\"a\x01b\"", "\"a\x7fb\"", `"\q"`, `"\u12"`, `"abc`, `"` + strings.Repeat("long", 20) + `"`,
	`true`, `false`, `null`, `nul`, `tru`, `falsey`, `nullx`, `True`,
	`[]`, `{}`, `[1]`, `{"a":1}`, ` 7 `, "\t\n\r null", ``, ` `,
}

// decodeEach runs decode on every value, after setting the target to a
// value no input holds, and requires what json.Unmarshal does: the same
// verdict and the same value, which null leaves as it was.
func decodeEach[T any](t *testing.T, prior T, decode func(*Scanner, *T) error) {
	t.Helper()
	for _, text := range values {
		got, want := prior, prior
		wantErr := json.Unmarshal([]byte(text), &want)
		s := scanner(text)
		gotErr := decode(s, &got)
		if gotErr == nil {
			gotErr = s.End()
		}
		if (gotErr == nil) != (wantErr == nil) || gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%T from %q: got %#v, %v; encoding/json %#v, %v", prior, text, got, gotErr, want, wantErr)
		}
	}
}

func TestFieldsDecodeAsEncodingJSON(t *testing.T) {
	decodeEach(t, 99, (*Scanner).Int)
	decodeEach(t, int64(99), (*Scanner).Int64)
	decodeEach(t, 0.25, (*Scanner).Float64)
	decodeEach(t, true, (*Scanner).Bool)
	decodeEach(t, "prior", (*Scanner).String)
}

// TestSkipAndRaw: Skip accepts what json.Valid does, and Raw returns the
// value's text.
func TestSkipAndRaw(t *testing.T) {
	texts := append([]string{
		`{"a":[1,{"b":null}],"c":"d"}`, `[1,]`, `{"a":1,}`, `{"a" 1}`, `{1:2}`, `[1 2]`, `{"a":1}}`,
		`["\ud800", "\u0000", "tab\tin"]`, "[\"\\u00zz\"]",
		strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth),
		strings.Repeat("[", maxDepth+1) + strings.Repeat("]", maxDepth+1),
		strings.Repeat(`{"k":`, maxDepth) + "0" + strings.Repeat("}", maxDepth),
		strings.Repeat(`{"k":`, maxDepth+1) + "0" + strings.Repeat("}", maxDepth+1),
	}, values...)
	for _, text := range texts {
		s := scanner(text)
		err := s.Skip(0)
		if err == nil {
			err = s.End()
		}
		if valid := json.Valid([]byte(text)); (err == nil) != valid {
			t.Errorf("Skip(%.40q): %v; json.Valid says %t", text, err, valid)
		}
		s = scanner(text)
		if raw, err := s.Raw(); err == nil && s.End() == nil && string(raw) != strings.TrimSpace(text) {
			t.Errorf("Raw(%.40q) = %.40q", text, raw)
		}
	}
	// A value nested inside others counts their depth.
	deep := strings.Repeat("[", maxDepth-2) + strings.Repeat("]", maxDepth-2)
	if err := scanner(deep).Skip(2); err != nil {
		t.Errorf("%d levels under 2: %v", maxDepth-2, err)
	}
	if err := scanner(deep).Skip(3); err == nil {
		t.Errorf("%d levels under 3 accepted", maxDepth-2)
	}
}

// pair is a struct the tests decode by hand and by encoding/json.
type pair struct {
	Size int
	Kind string `json:"kind"`
}

func readPair(s *Scanner, p *pair) error {
	return s.Object(func(key []byte) error {
		switch {
		case Match(key, "Size"):
			return s.Int(&p.Size)
		case Match(key, "kind"):
			return s.String(&p.Kind)
		}
		return s.Skip(3)
	})
}

// TestObjectsDecodeAsEncodingJSON decodes a slice of structs, as the
// member of an object, from documents that repeat it, shorten it, null it
// and empty it, with names in any case, escaped, or folded to other runes.
func TestObjectsDecodeAsEncodingJSON(t *testing.T) {
	docs := []string{
		`{"v":[{"Size":1,"kind":"a"},{"Size":2,"kind":"b"}]}`,
		`{"v":[{"Size":1,"kind":"a"},{"Size":2,"kind":"b"}],"v":[{"kind":"c"}]}`,
		`{"v":[{"Size":1,"kind":"a"},{"Size":2,"kind":"b"}],"v":[{"kind":"c"}],"v":[null,{"Size":9}]}`,
		`{"v":[{"Size":1},{"Size":2}],"v":[],"v":[{"kind":"x"},{}]}`,
		`{"v":[{"Size":1},{"Size":2}],"v":null,"v":[{"kind":"x"},{}]}`,
		`{"v":[{"size":1,"KIND":"a","SIZE":3,"ſize":4,"\u0073ize":5,"Kınd":"no","other":[{"deep":[]}]}]}`,
		`{"v":[{"Size":1,"Size":null}]}`, `{"v":[]}`, `{"v":null}`, `{"v":{}}`, `{"v":[1]}`, `{"v":[{"Size":"1"}]}`,
		`{"v":[{"Size":1},]}`, `{"v":[{"Size":1,}]}`, `{"v":[{"Size":01}]}`, `{"v":[{"kind":"\x"}]}`,
	}
	for _, doc := range docs {
		var want struct{ V []pair }
		wantErr := json.Unmarshal([]byte(doc), &want)
		var got []pair
		var arr Array[pair]
		arr.buf = []pair{{Size: -1, Kind: "stale"}, {Size: -2, Kind: "stale"}} // left by an earlier value
		arr.Reset()
		s := scanner(doc)
		err := s.Object(func(key []byte) (err error) {
			if !Match(key, "v") {
				return s.Skip(1)
			}
			got, err = arr.Decode(s, readPair)
			return err
		})
		if err == nil {
			err = s.End()
		}
		if (err == nil) != (wantErr == nil) || err == nil && !reflect.DeepEqual(got, want.V) {
			t.Errorf("%s: got %#v, %v; encoding/json %#v, %v", doc, got, err, want.V, wantErr)
		}
	}
}

// TestLongTokens: keys, strings and numbers longer than the window, and a
// key whose colon lies past it.
func TestLongTokens(t *testing.T) {
	name := strings.Repeat("n", 100)
	doc := `{"` + name + `"   :"` + name + `\n","Size": 123456789012345678}`
	s := New(bufio.NewReaderSize(strings.NewReader(doc), 16))
	if err := s.Expect('{'); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next('}', true); err != nil {
		t.Fatal(err)
	}
	key, err := s.Key()
	if err != nil || string(key) != name {
		t.Fatalf("key %q, %v", key, err)
	}
	var v string
	if err := s.String(&v); err != nil || v != name+"\n" {
		t.Fatalf("string %q, %v", v, err)
	}
	if _, err := s.Next('}', false); err != nil {
		t.Fatal(err)
	}
	if key, err := s.Key(); err != nil || !Match(key, "Size") {
		t.Fatalf("key %q, %v", key, err)
	}
	var n int64
	if err := s.Int64(&n); err != nil || n != 123456789012345678 {
		t.Fatalf("number %d, %v", n, err)
	}
	if more, err := s.Next('}', false); more || err != nil {
		t.Fatalf("end of object: %t, %v", more, err)
	}
	if err := s.End(); err != nil {
		t.Fatal(err)
	}
}
