package jsonscan

import (
	"bufio"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"unicode/utf8"
)

// scanner reads text one byte per Read behind the smallest buffer bufio
// allows, so every token crosses the window edge somewhere.
func scanner(text string) *Scanner {
	return New(bufio.NewReaderSize(iotest.OneByteReader(strings.NewReader(text)), 16))
}

// texts are JSON texts and near misses for the value readers.
var texts = []string{
	`0`, `-0`, `7`, `-12`, `01`, `-01`, `1.5`, `1.`, `.5`, `-`, `+1`, `1e3`, `1E+3`, `1e+21`, `1e-7`, `1e`, `1e+`, `0.0e0`,
	`9223372036854775807`, `9223372036854775808`, `-9223372036854775808`, `-9223372036854775809`,
	`2147483648`, `1e400`, `-1e400`, `1e-400`, `5e-324`, `123456789012345678901234567890`, `1.5x`, `12 3`,
	`""`, `"abc"`, `"a b&<>"`, `"a \u0026\u003c\u003e"`, `"a\"b"`, `"a\\b"`, `"\/"`, `"\u00e9"`, `"é"`, `"\u00E9"`,
	`"\ud800"`, `"\ud83d\ude00"`, `"😀"`, `"\ufffd"`, "\"\uFFFD\"", `"\ufffd\ufffd"`, `"\\ufffd"`, `"\uFFFD"`,
	"\"\xff\xfe\"", "\"a\x01b\"", `"a\u0001b"`, `"a\u0001B"`, "\"a\x7fb\"", `"\u007f"`, `"\n\t"`, `"\u000a"`, `"\b\f"`, `"\u0008"`,
	`"\u2028"`, "\"\u2028\"", `"\q"`, `"\u12"`, `"abc`, `"` + strings.Repeat("long", 20) + `"`,
	`true`, `false`, `null`, `nul`, `tru`, `falsey`, `nullx`, `True`,
	`[]`, `{}`, `[1]`, `{"a":1}`, ` 7 `, "\t\n\r null", ``, ` `,
}

// readEach reads every text with read and requires the round trip both
// ways: a text read to the end is what the writer writes for the value
// read, and a text the writer writes for the value encoding/json decodes
// it to is read.
func readEach[T any](t *testing.T, read func(*Scanner, *T), writes func(v T, text string) bool) {
	t.Helper()
	for _, text := range texts {
		var got T
		s := scanner(text)
		read(s, &got)
		s.End()
		if s.Err() == nil && !writes(got, text) {
			t.Errorf("%T from %q: read %#v, for which the writer writes something else", got, text, got)
		}
		var want T
		if json.Unmarshal([]byte(text), &want) == nil && writes(want, text) && s.Err() != nil {
			t.Errorf("%T from %q, its writer's rendering of %#v: %v", want, text, want, s.Err())
		}
	}
}

func marshals[T any](v T, text string) bool {
	b, err := json.Marshal(v)
	return err == nil && string(b) == text
}

func TestValuesReadOnlyAsWritten(t *testing.T) {
	readEach(t, (*Scanner).Int, func(v int, text string) bool { return strconv.Itoa(v) == text })
	readEach(t, (*Scanner).Int64, func(v int64, text string) bool { return strconv.FormatInt(v, 10) == text })
	readEach(t, (*Scanner).Float64, marshals[float64])
	readEach(t, (*Scanner).Bool, marshals[bool])
	readEach(t, (*Scanner).String, func(v, text string) bool { return string(AppendString(nil, v)) == text })
}

// TestStringsReadBack: every string AppendString writes reads back to
// itself, but for a string that is not UTF-8, which does not read back.
func TestStringsReadBack(t *testing.T) {
	for _, v := range []string{"", "plain name.txt", "R&D <tmp>", "l'été", "\uFFFD", "bad\xff\xfeutf8", "\\ufffd", "nul\x00\b\f\n\r\t\x7f", "line\u2028sep\u2029", `"quoted"`, strings.Repeat("é", 40)} {
		text := string(AppendString(nil, v))
		var got string
		s := scanner(text)
		s.String(&got)
		s.End()
		if utf8.ValidString(v) && (s.Err() != nil || got != v) || !utf8.ValidString(v) && s.Err() == nil {
			t.Errorf("String(%q), written for %q: %q, %v", text, v, got, s.Err())
		}
	}
}

// TestValue: Value takes what json.Marshal writes for the value it
// decodes, nothing else, and no deeper nesting than encoding/json's.
func TestValue(t *testing.T) {
	type view struct {
		N     int               `json:"n"`
		Names []string          `json:"names"`
		M     map[string]string `json:"m,omitempty"`
		F     float64           `json:"f"`
	}
	for _, c := range []struct {
		text string
		ok   bool
	}{
		{`{"n":1,"names":["a","b\u003c"],"m":{"a":"1","b":"2"},"f":0.5}`, true},
		{`{"n":1,"names":null,"f":0}`, true},
		{`{"n":1,"names":[],"f":1e+21}`, true},
		{`{"names":null,"n":1,"f":0}`, false},
		{`{"n":1,"names":null,"f":0,"x":1}`, false},
		{`{"N":1,"names":null,"f":0}`, false},
		{`{"n":1,"n":1,"names":null,"f":0}`, false},
		{`{"n":1, "names":null,"f":0}`, false},
		{`{"n":1,"names":["<"],"f":0}`, false},
		{`{"n":1,"names":null,"m":{"b":"2","a":"1"},"f":0}`, false},
		{`{"n":1,"names":null,"m":{},"f":0}`, false},
		{`{"n":1,"names":null,"f":1e21}`, false},
		{`{"n":1,"names":null,"f":0}}`, false},
		{`{"n":1,"names":null,"f":0`, false},
		{`{"n":1,"names":[}],"f":0}`, false},
	} {
		var v view
		s := scanner(c.text)
		s.Value(&v)
		s.End()
		if (s.Err() == nil) != c.ok {
			t.Errorf("Value(%s): %v, want ok %t", c.text, s.Err(), c.ok)
		}
	}
	for _, depth := range []int{maxDepth, maxDepth + 1} {
		var v any
		s := scanner(strings.Repeat("[", depth) + strings.Repeat("]", depth))
		s.Value(&v)
		if (s.Err() == nil) != (depth <= maxDepth) {
			t.Errorf("Value of %d nested arrays: %v", depth, s.Err())
		}
	}
}

// TestLitsAndArrays walks a writer's text, with a long string and a long
// number across the window's edge, and its near misses.
func TestLitsAndArrays(t *testing.T) {
	name := strings.Repeat("n", 100)
	read := func(text string) ([]int64, string, error) {
		s := scanner(text)
		var ns []int64
		var str string
		s.Lit(`{"k":[`)
		for more := !s.Opt("]"); more; more = s.Next() {
			var n int64
			s.Int64(&n)
			ns = append(ns, n)
		}
		if s.Opt(`,"s":`) {
			s.String(&str)
		}
		s.Lit("}\n")
		s.End()
		return ns, str, s.Err()
	}
	doc := `{"k":[123456789012345678,-1,0],"s":"` + name + `\n"}` + "\n"
	if ns, str, err := read(doc); err != nil || len(ns) != 3 || ns[0] != 123456789012345678 || str != name+"\n" {
		t.Fatalf("%q: %v, %q, %v", doc, ns, str, err)
	}
	if ns, str, err := read(`{"k":[]}` + "\n"); err != nil || ns != nil || str != "" {
		t.Fatalf("empty array: %v, %q, %v", ns, str, err)
	}
	for _, bad := range []string{
		`{"k":[1,]}` + "\n", `{"k":[1 ]}` + "\n", `{"k":[1]}`, `{"k":[1]}` + "\n\n",
		`{"k":[1],"s":null}` + "\n", `{"k":[1]` + "\n", `{"K":[1]}` + "\n",
		`{"k":[01]}` + "\n", `{"k":[1e3]}` + "\n", `{"k":[null]}` + "\n",
	} {
		if _, _, err := read(bad); err == nil {
			t.Errorf("%q read", bad)
		}
	}
	// A failure sticks: nothing after it reads.
	s := scanner(`xtrue`)
	var b bool
	s.Bool(&b)
	if s.Opt("x") || s.Next() || s.Err() == nil {
		t.Errorf("the scan went on after a failure: %v", s.Err())
	}
}

// TestAppendQuoted holds the fast path to both renderings it stands for.
func TestAppendQuoted(t *testing.T) {
	for b := 0; b < 256; b++ {
		str := "a" + string(rune(b))
		if b >= 0x80 {
			str = "a" + string([]byte{byte(b)})
		}
		fast := string(AppendQuoted(nil, str, func(dst []byte, s string) []byte { return append(dst, "slow"...) }))
		if fast == "slow" {
			continue
		}
		marshaled, _ := json.Marshal(str)
		if fast != string(marshaled) || fast != strconv.Quote(str) || !copiedThrough[b] {
			t.Errorf("byte %#x: copied as %s; json.Marshal writes %s, strconv.Quote %s", b, fast, marshaled, strconv.Quote(str))
		}
	}
	if got := string(AppendString(nil, "\xff<")); got != `"\ufffd\u003c"` {
		t.Errorf("AppendString: %s", got)
	}
}
