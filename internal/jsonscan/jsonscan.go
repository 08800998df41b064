// Package jsonscan writes and reads the one JSON encoding this program
// exchanges at volume: plan fragments and shard manifests. The encoding is
// the bytes json.Marshal gives the writers' types: no whitespace, members
// in declaration order, strings as AppendString renders them. A reader
// built on the Scanner accepts exactly the bytes its writer emits and
// refuses any other input, however encoding/json would decode it:
//
//   - Lit and Opt match the writer's literal text (braces, brackets, commas
//     and member names) byte for byte, so members come in the writer's
//     order under its names, with no whitespace, and an optional member
//     only where the writer writes it.
//   - Int, Int64, Bool, Float64 and String read one value each and hold it
//     to the writer's rendering: the value must render back to the bytes
//     read, so an integer is strconv.AppendInt's (no sign, leading zero,
//     fraction or exponent it would not write), a float json.Marshal's and
//     a string AppendString's. None of them takes null. A string that is
//     not UTF-8 does not read back: encoding/json writes each byte of it
//     that is not as \ufffd, which decodes to U+FFFD and so renders back as
//     another string.
//   - Value reads a value of any shape with encoding/json and requires
//     json.Marshal to give the bytes read back from what it decoded.
//
// The scanner reads straight from a bufio.Reader's buffer (Peek and
// Discard). Its errors are sticky: the first failure stops the scan, every
// later call does nothing, and Err reports it, so a reader is its writer's
// sequence of appends replayed as calls, with one check at the end.
package jsonscan

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// maxDepth is the nesting encoding/json allows inside one value it decodes:
// a container maxDepth+1 levels down is an error.
const maxDepth = 10000

// Scanner reads the encoding from a bufio.Reader.
type Scanner struct {
	r   *bufio.Reader
	win []byte // the reader's buffered bytes
	pos int    // how much of win is consumed
	off int64  // input offset of win[0]
	err error  // the first failure

	tok []byte // a token that does not lie whole in win
	raw []byte // what Value captures
	// mark is where the capture began in win; -1 when Value is not capturing.
	mark int
}

// New returns a scanner reading from r. It consumes from r only what it
// has scanned.
func New(r *bufio.Reader) *Scanner { return &Scanner{r: r, mark: -1} }

// Err returns the failure that stopped the scan, or nil.
func (s *Scanner) Err() error { return s.err }

// Fail stops the scan, unless it has stopped already, with an error at the
// current offset: for a reader that finds a value its writer does not write.
func (s *Scanner) Fail(format string, a ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("jsonscan: offset %d: %s", s.off+int64(s.pos), fmt.Sprintf(format, a...))
	}
}

// fill discards the consumed bytes and makes at least n more contiguous
// bytes available in win, fewer only at the end of the input, and reports
// whether any are. A read error stops the scan.
func (s *Scanner) fill(n int) bool {
	if s.mark >= 0 {
		s.raw = append(s.raw, s.win[s.mark:s.pos]...)
		s.mark = 0
	}
	s.r.Discard(s.pos) // never more than is buffered
	s.off += int64(s.pos)
	s.win, s.pos = nil, 0
	_, err := s.r.Peek(n)
	s.win, _ = s.r.Peek(s.r.Buffered())
	if len(s.win) == 0 && err != nil && err != io.EOF && s.err == nil {
		s.err = fmt.Errorf("jsonscan: offset %d: %w", s.off, err)
	}
	return len(s.win) > 0
}

// peek returns the next byte without consuming it, or reports false once
// the scan has stopped, stopping it at the end of the input.
func (s *Scanner) peek() (byte, bool) {
	if s.err != nil {
		return 0, false
	}
	if s.pos == len(s.win) && !s.fill(1) {
		s.Fail("unexpected end of input")
		return 0, false
	}
	return s.win[s.pos], true
}

// Opt consumes lit and reports true when the input goes on with it;
// otherwise it consumes nothing.
func (s *Scanner) Opt(lit string) bool {
	if s.err != nil {
		return false
	}
	if len(s.win)-s.pos < len(lit) {
		s.fill(len(lit))
	}
	if len(s.win)-s.pos < len(lit) || string(s.win[s.pos:s.pos+len(lit)]) != lit {
		return false
	}
	s.pos += len(lit)
	return true
}

// Lit consumes lit, which the input must go on with.
func (s *Scanner) Lit(lit string) {
	if !s.Opt(lit) {
		s.Fail("expected %s, found %q", lit, s.win[s.pos:min(len(s.win), s.pos+len(lit))])
	}
}

// Next reads what follows an element of an array: a comma, reporting true,
// or the closing bracket, reporting false.
func (s *Scanner) Next() bool {
	c, ok := s.peek()
	switch {
	case !ok:
	case c == ',':
		s.pos++
		return true
	case c == ']':
		s.pos++
	default:
		s.Fail("expected ',' or ']', found %q", c)
	}
	return false
}

// End requires the input to end here.
func (s *Scanner) End() {
	if s.err == nil && (s.pos < len(s.win) || s.fill(1)) {
		s.Fail("input goes on after the value: %q", s.win[s.pos])
	}
}

// Int reads an integer as strconv.AppendInt writes an int.
func (s *Scanner) Int(v *int) {
	if n, ok := s.integer(strconv.IntSize); ok {
		*v = int(n)
	}
}

// Int64 reads an integer as strconv.AppendInt writes an int64.
func (s *Scanner) Int64(v *int64) {
	if n, ok := s.integer(64); ok {
		*v = n
	}
}

// integer reads an integer of the given bit size as strconv.AppendInt
// writes it.
func (s *Scanner) integer(bits int) (int64, bool) {
	b, ok := s.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(b), 10, bits)
	var text [20]byte
	if err != nil || string(strconv.AppendInt(text[:0], n, 10)) != string(b) {
		s.Fail("%q is not a %d-bit integer as strconv.AppendInt writes one", b, bits)
		return 0, false
	}
	return n, true
}

// Float64 reads a number as json.Marshal writes a float64.
func (s *Scanner) Float64(v *float64) {
	b, ok := s.number()
	if !ok {
		return
	}
	f, err := strconv.ParseFloat(string(b), 64)
	if err == nil {
		var text []byte
		if text, err = json.Marshal(f); err == nil && !bytes.Equal(text, b) {
			err = fmt.Errorf("json.Marshal writes %s", text)
		}
	}
	if err != nil {
		s.Fail("%q is not a float64 as json.Marshal writes one: %v", b, err)
		return
	}
	*v = f
}

// numeric holds the bytes a JSON number is made of.
var numeric = [256]bool{'0': true, '1': true, '2': true, '3': true, '4': true, '5': true, '6': true, '7': true, '8': true, '9': true,
	'-': true, '+': true, '.': true, 'e': true, 'E': true}

// number consumes the run of numeric bytes at the next byte, the text its
// caller parses and renders back.
func (s *Scanner) number() ([]byte, bool) {
	if _, ok := s.peek(); !ok {
		return nil, false
	}
	i := s.pos
	for i < len(s.win) && numeric[s.win[i]] {
		i++
	}
	b := s.win[s.pos:i]
	s.pos = i
	if i == len(s.win) {
		// The run may go on past the buffered bytes.
		s.tok = append(s.tok[:0], b...)
		for s.fill(1) {
			i := 0
			for i < len(s.win) && numeric[s.win[i]] {
				i++
			}
			s.tok = append(s.tok, s.win[:i]...)
			s.pos = i
			if i < len(s.win) {
				break
			}
		}
		b = s.tok
	}
	return b, s.err == nil
}

// Bool reads true or false.
func (s *Scanner) Bool(v *bool) {
	switch {
	case s.Opt("true"):
		*v = true
	case s.Opt("false"):
		*v = false
	default:
		s.Fail("expected true or false")
	}
}

// String reads a string as AppendString writes it.
func (s *Scanner) String(v *string) {
	if !s.Opt(`"`) {
		s.Fail("expected a string")
		return
	}
	b, plain := s.str()
	switch {
	case s.err != nil:
	case plain:
		*v = string(b)
	default:
		var u string
		if err := json.Unmarshal(b, &u); err != nil {
			s.Fail("%v", err)
		} else if string(AppendString(nil, u)) != string(b) {
			s.Fail("string %q is not written as AppendString writes it", b)
		} else {
			*v = u
		}
	}
}

// str consumes the rest of a string whose opening quote is consumed. A
// string of bytes AppendString copies comes back as they are, without the
// quotes; any other as its quoted text, with plain false.
func (s *Scanner) str() (b []byte, plain bool) {
	start, i := s.pos, s.pos
	for i < len(s.win) && copiedThrough[s.win[i]] {
		i++
	}
	if i < len(s.win) && s.win[i] == '"' {
		s.pos = i + 1
		return s.win[start:i], true
	}
	// Escapes, other bytes, or the string goes on past the buffered bytes:
	// gather its quoted text.
	s.tok = append(s.tok[:0], '"')
	plain = true
	escaped := false
	for {
		for i := s.pos; i < len(s.win); i++ {
			switch c := s.win[i]; {
			case escaped:
				escaped = false
			case c == '\\':
				escaped, plain = true, false
			case c == '"':
				s.tok = append(s.tok, s.win[s.pos:i+1]...)
				s.pos = i + 1
				if plain {
					return s.tok[1 : len(s.tok)-1], true
				}
				return s.tok, false
			case !copiedThrough[c]:
				plain = false
			}
		}
		s.tok = append(s.tok, s.win[s.pos:]...)
		s.pos = len(s.win)
		if !s.fill(1) {
			s.Fail("string not terminated")
			return nil, false
		}
	}
}

// Value reads one value of any shape into v with json.Unmarshal, and
// requires json.Marshal to render what it decoded back to the bytes read.
// It reports whether json.Unmarshal decoded v, which it may have done for
// bytes the writer does not write.
func (s *Scanner) Value(v any) (decoded bool) {
	if s.err != nil {
		return false
	}
	s.raw, s.mark = s.raw[:0], s.pos
	s.skip()
	s.raw = append(s.raw, s.win[s.mark:s.pos]...)
	s.mark = -1
	if s.err != nil {
		return false
	}
	if err := json.Unmarshal(s.raw, v); err != nil {
		s.Fail("%v", err)
		return false
	}
	if text, err := json.Marshal(v); err != nil || !bytes.Equal(text, s.raw) {
		s.Fail("%.64q is not written as json.Marshal writes what it decodes to", s.raw)
	}
	return true
}

// skip consumes one value. encoding/json decides whether it is JSON, so
// skip only finds where it ends: at the bracket that closes it or, for a
// value outside any, before the comma or bracket that follows it. Nesting
// deeper than encoding/json allows stops the scan.
func (s *Scanner) skip() {
	for depth := 0; ; {
		c, ok := s.peek()
		if !ok {
			return
		}
		switch {
		case c == '"':
			s.pos++
			s.str()
		case c == '{' || c == '[':
			if depth == maxDepth {
				s.Fail("exceeded max depth %d", maxDepth)
				return
			}
			depth++
			s.pos++
		case c == '}' || c == ']' || c == ',':
			if depth == 0 {
				return
			}
			if c != ',' {
				depth--
			}
			s.pos++
		default:
			s.pos++ // a byte of a scalar, or a colon
			continue
		}
		if depth == 0 {
			return
		}
	}
}

// Append extends buf by one zero element, for a reader to read the next
// element of an array into. The array doubles when full, so on its way to
// any length it is copied about once and holds at most twice what arrived.
func Append[T any](buf []T) []T {
	if len(buf) == cap(buf) {
		buf = slices.Grow(buf, max(len(buf), 16))
	}
	var zero T
	return append(buf, zero)
}

// copiedThrough holds the bytes AppendQuoted copies: printable ASCII but
// " \ < > &. A table, so its scan of every name a chunk renders, hashes and
// reads costs a load a byte, not seven comparisons.
var copiedThrough = func() (t [256]bool) {
	for b := 0x20; b <= 0x7e; b++ {
		t[b] = !strings.ContainsRune(`"\<>&`, rune(b))
	}
	return t
}()

// AppendQuoted appends s between double quotes as it stands when it is
// printable ASCII free of " \ < > & — a string that strconv.Quote and
// encoding/json (which escapes the last three for HTML) both copy through,
// as every generated name is — and leaves any other string to render, the
// renderer whose output the fast path stands for.
func AppendQuoted(dst []byte, s string, render func([]byte, string) []byte) []byte {
	for i := 0; i < len(s); i++ {
		if !copiedThrough[s[i]] {
			return render(dst, s)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// AppendString appends s as json.Marshal renders it, the one form String
// reads: copied between quotes when AppendQuoted can, by encoding/json
// otherwise.
func AppendString(dst []byte, s string) []byte {
	return AppendQuoted(dst, s, appendMarshaled)
}

// appendMarshaled appends json.Marshal(s).
func appendMarshaled(dst []byte, s string) []byte {
	raw, _ := json.Marshal(s) // a string always marshals
	return append(dst, raw...)
}
