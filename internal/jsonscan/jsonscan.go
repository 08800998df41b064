// Package jsonscan is a pull scanner for the JSON this program writes and
// reads back at volume: plan fragments and shard manifests. It reads
// straight from a bufio.Reader's buffer (Peek and Discard), and its readers
// decide every input as encoding/json decodes it into the struct the
// caller mirrors, so a hand-written reader built on it accepts and refuses
// what json.Unmarshal would:
//
//   - Int, Int64, Float64, Bool and String decode one value into a field;
//     null leaves the field as it is, and a value of another type is an
//     error.
//   - Numbers are held to the JSON number grammar, then parsed by
//     strconv.ParseInt or ParseFloat, as encoding/json parses them.
//   - A string of ASCII from the space up, without '"' or '\', is its own
//     value: the mirror of the writer's fast path. Any other string is
//     unquoted (or, skipped, validated) by encoding/json itself, so its
//     escape and UTF-8 rules are never restated here.
//   - Match pairs a member name with a field name as encoding/json does,
//     under bytes.EqualFold; Array decodes into a slice field as it does,
//     element by element into the array behind the slice.
//   - Skip walks any value, Raw captures one for json.Unmarshal, and both
//     refuse nesting deeper than encoding/json does.
//
// The scanner owns no structure: the caller walks objects with Object (or
// Expect, Next and Key) and arrays with Array or Next, and decides what a
// member means.
package jsonscan

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// maxDepth is the nesting encoding/json allows inside one value it decodes:
// a container maxDepth+1 levels down is an error.
const maxDepth = 10000

// Scanner reads JSON tokens from a bufio.Reader. Byte slices it returns
// (Key, Raw) are valid until its next call.
type Scanner struct {
	r   *bufio.Reader
	win []byte // the reader's buffered bytes
	pos int    // how much of win is consumed
	off int64  // input offset of win[0]

	tok []byte // a token that does not lie whole in win
	key []byte // a key kept while the colon after it is read
	raw []byte // what Raw captures
	// mark is where the capture began in win; -1 when Raw is not capturing.
	mark int
}

// New returns a scanner reading from r. It consumes from r only what it
// has scanned.
func New(r *bufio.Reader) *Scanner { return &Scanner{r: r, mark: -1} }

var errEnd = errors.New("unexpected end of input")

func (s *Scanner) errorf(format string, a ...any) error {
	return fmt.Errorf("jsonscan: offset %d: %w", s.off+int64(s.pos), fmt.Errorf(format, a...))
}

// fill discards the consumed bytes and makes at least n more contiguous
// bytes available in win: fewer only at the end of input, which with none
// at all is errEnd.
func (s *Scanner) fill(n int) error {
	if s.mark >= 0 {
		s.raw = append(s.raw, s.win[s.mark:s.pos]...)
		s.mark = 0
	}
	s.r.Discard(s.pos) // never more than is buffered
	s.off += int64(s.pos)
	s.win, s.pos = nil, 0
	_, err := s.r.Peek(n)
	s.win, _ = s.r.Peek(s.r.Buffered())
	switch {
	case len(s.win) > 0:
		return nil
	case err == nil || err == io.EOF:
		return errEnd
	default:
		return fmt.Errorf("jsonscan: offset %d: %w", s.off, err)
	}
}

// peek skips whitespace and returns the next byte without consuming it.
func (s *Scanner) peek() (byte, error) {
	for {
		for ; s.pos < len(s.win); s.pos++ {
			if c := s.win[s.pos]; c != ' ' && c != '\n' && c != '\r' && c != '\t' {
				return c, nil
			}
		}
		if err := s.fill(1); err != nil {
			if err == errEnd {
				return 0, s.errorf("%w", err)
			}
			return 0, err
		}
	}
}

// Expect consumes the delimiter c, after any whitespace.
func (s *Scanner) Expect(c byte) error {
	got, err := s.peek()
	if err != nil {
		return err
	}
	if got != c {
		return s.errorf("expected %q, found %q", c, got)
	}
	s.pos++
	return nil
}

// Next steps to the next element of the array or object whose opening
// delimiter was consumed, first saying whether none came before: it
// consumes the comma that separates two elements and reports true, or
// consumes close and reports false.
func (s *Scanner) Next(close byte, first bool) (bool, error) {
	c, err := s.peek()
	if err != nil {
		return false, err
	}
	switch {
	case c == close:
		s.pos++
		return false, nil
	case first:
		return true, nil
	case c == ',':
		s.pos++
		return true, nil
	}
	return false, s.errorf("expected ',' or %q, found %q", close, c)
}

// Object reads an object: for each member it reads the name, unquoted, and
// calls member with it to read the value.
func (s *Scanner) Object(member func(key []byte) error) error {
	if err := s.Expect('{'); err != nil {
		return err
	}
	for first := true; ; first = false {
		more, err := s.Next('}', first)
		if err != nil || !more {
			return err
		}
		key, err := s.Key()
		if err != nil {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
	}
}

// End requires the input to end here, after any whitespace.
func (s *Scanner) End() error {
	c, err := s.peek()
	if err == nil {
		return s.errorf("input goes on after the value: %q", c)
	}
	if errors.Is(err, errEnd) {
		return nil
	}
	return err
}

// Null consumes a null and reports true, or reports false and consumes
// nothing when the next value is not null.
func (s *Scanner) Null() (bool, error) {
	c, err := s.peek()
	if err != nil || c != 'n' {
		return false, err
	}
	return true, s.literal("null")
}

// literal consumes word, which the next byte begins.
func (s *Scanner) literal(word string) error {
	if len(s.win)-s.pos < len(word) {
		if err := s.fill(len(word)); err != nil && err != errEnd {
			return err
		}
	}
	if len(s.win)-s.pos < len(word) || string(s.win[s.pos:s.pos+len(word)]) != word {
		return s.errorf("invalid literal, expected %s", word)
	}
	s.pos += len(word)
	return nil
}

// Key reads a member name, unquoted, and the colon after it.
func (s *Scanner) Key() ([]byte, error) {
	if err := s.Expect('"'); err != nil {
		return nil, err
	}
	key, err := s.unquote()
	if err != nil {
		return nil, err
	}
	if s.pos < len(s.win) && s.win[s.pos] == ':' {
		s.pos++
		return key, nil
	}
	// Reading on may refill the window the key lies in.
	s.key = append(s.key[:0], key...)
	if err := s.Expect(':'); err != nil {
		return nil, err
	}
	return s.key, nil
}

// Match reports whether a member named key decodes into the struct field
// named name: encoding/json pairs them when they are equal under Unicode
// case folding, preferring an exact match, which for field names that do
// not fold together is the same thing.
func Match(key []byte, name string) bool {
	return string(key) == name || bytes.EqualFold(key, []byte(name))
}

// plain holds the bytes that stand for themselves between quotes: ASCII
// from the space up, but not '"' or '\'.
var plain = func() (t [256]bool) {
	for b := ' '; b < 0x80; b++ {
		t[b] = b != '"' && b != '\\'
	}
	return t
}()

// str consumes the rest of a string whose opening quote is consumed. A
// string of plain bytes comes back as they are, without the quotes; any
// other as its quoted text, with isPlain false.
func (s *Scanner) str() (b []byte, isPlain bool, err error) {
	start, i := s.pos, s.pos
	for i < len(s.win) && plain[s.win[i]] {
		i++
	}
	if i < len(s.win) && s.win[i] == '"' {
		s.pos = i + 1
		return s.win[start:i], true, nil
	}
	// Escapes, control or non-ASCII bytes, or the string goes on past the
	// buffered bytes: gather its quoted text, and let the caller hand that
	// to encoding/json when it is not plain after all.
	s.tok = append(s.tok[:0], '"')
	isPlain = true
	escaped := false
	for {
		for i := s.pos; i < len(s.win); i++ {
			switch c := s.win[i]; {
			case escaped:
				escaped = false
			case c == '\\':
				escaped, isPlain = true, false
			case !plain[c] && c != '"':
				isPlain = false
			case c == '"':
				s.tok = append(s.tok, s.win[s.pos:i+1]...)
				s.pos = i + 1
				if isPlain {
					return s.tok[1 : len(s.tok)-1], true, nil
				}
				return s.tok, false, nil
			}
		}
		s.tok = append(s.tok, s.win[s.pos:]...)
		s.pos = len(s.win)
		if err := s.fill(1); err != nil {
			if err == errEnd {
				return nil, false, s.errorf("string not terminated")
			}
			return nil, false, err
		}
	}
}

// unquote consumes the rest of a string and returns its value.
func (s *Scanner) unquote() ([]byte, error) {
	b, isPlain, err := s.str()
	if err != nil || isPlain {
		return b, err
	}
	var v string
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, s.errorf("%v", err)
	}
	return []byte(v), nil
}

// String decodes a string, or null, into *v.
func (s *Scanner) String(v *string) error {
	c, err := s.peek()
	switch {
	case err != nil:
		return err
	case c == '"':
		s.pos++
		b, err := s.unquote()
		if err == nil {
			*v = string(b)
		}
		return err
	case c == 'n':
		return s.literal("null")
	}
	return s.mismatch(c, "a string")
}

// Bool decodes true, false or null into *v.
func (s *Scanner) Bool(v *bool) error {
	c, err := s.peek()
	switch {
	case err != nil:
		return err
	case c == 't':
		if err := s.literal("true"); err != nil {
			return err
		}
		*v = true
		return nil
	case c == 'f':
		if err := s.literal("false"); err != nil {
			return err
		}
		*v = false
		return nil
	case c == 'n':
		return s.literal("null")
	}
	return s.mismatch(c, "a boolean")
}

// Int decodes a number, or null, into *v as encoding/json decodes into an
// int: an integer in range, or an error.
func (s *Scanner) Int(v *int) error {
	n, ok, err := s.integer(strconv.IntSize)
	if ok {
		*v = int(n)
	}
	return err
}

// Int64 decodes a number, or null, into *v as encoding/json decodes into an
// int64.
func (s *Scanner) Int64(v *int64) error {
	n, ok, err := s.integer(64)
	if ok {
		*v = n
	}
	return err
}

// integer reads a number that strconv.ParseInt takes at bits, or null
// (reporting false).
func (s *Scanner) integer(bits int) (int64, bool, error) {
	b, err := s.numberOrNull()
	if b == nil || err != nil {
		return 0, false, err
	}
	n, err := strconv.ParseInt(string(b), 10, bits)
	if err != nil {
		return 0, false, s.errorf("number %s is not a %d-bit integer", b, bits)
	}
	return n, true, nil
}

// Float64 decodes a number, or null, into *v as encoding/json decodes into
// a float64.
func (s *Scanner) Float64(v *float64) error {
	b, err := s.numberOrNull()
	if b == nil || err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return s.errorf("number %s is not a float64", b)
	}
	*v = f
	return nil
}

// numberOrNull reads a number's text, or null (returning nil).
func (s *Scanner) numberOrNull() ([]byte, error) {
	c, err := s.peek()
	switch {
	case err != nil:
		return nil, err
	case c == '-' || c >= '0' && c <= '9':
		return s.number()
	case c == 'n':
		return nil, s.literal("null")
	}
	return nil, s.mismatch(c, "a number")
}

// numeric holds the bytes a JSON number is made of.
var numeric = [256]bool{'0': true, '1': true, '2': true, '3': true, '4': true, '5': true, '6': true, '7': true, '8': true, '9': true,
	'-': true, '+': true, '.': true, 'e': true, 'E': true}

// number consumes the run of numeric bytes at the next byte and returns it,
// if it is a number by the JSON grammar. A number ends at any other byte, so
// a run that is not one is an error wherever in it the grammar breaks.
func (s *Scanner) number() ([]byte, error) {
	start := s.pos
	i := start
	for i < len(s.win) && numeric[s.win[i]] {
		i++
	}
	b := s.win[start:i]
	s.pos = i
	if i == len(s.win) {
		// The run may go on past the buffered bytes.
		s.tok = append(s.tok[:0], b...)
		for {
			if err := s.fill(1); err == errEnd {
				break
			} else if err != nil {
				return nil, err
			}
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
	if !validNumber(b) {
		return nil, s.errorf("invalid number %q", b)
	}
	return b, nil
}

// validNumber reports whether b is a number by the JSON grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func validNumber(b []byte) bool {
	digits := func(i int) int {
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return false
	case b[i] == '0':
		i++
	case b[i] >= '1' && b[i] <= '9':
		i = digits(i + 1)
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(i + 1)
		if j == i+1 {
			return false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(i)
		if j == i {
			return false
		}
		i = j
	}
	return i == len(b)
}

// mismatch is the error for a value of another type than the field's.
func (s *Scanner) mismatch(c byte, want string) error {
	return s.errorf("cannot decode a value beginning %q into %s", c, want)
}

// Skip consumes one value of any type. depth is how many containers
// enclose it inside the outermost value being decoded: a container nested
// deeper than maxDepth is an error, as in encoding/json.
func (s *Scanner) Skip(depth int) error {
	c, err := s.peek()
	if err != nil {
		return err
	}
	switch {
	case (c == '{' || c == '[') && depth >= maxDepth:
		return s.errorf("exceeded max depth %d", maxDepth)
	case c == '{':
		return s.Object(func([]byte) error { return s.Skip(depth + 1) })
	case c == '[':
		s.pos++
		for first := true; ; first = false {
			if more, err := s.Next(']', first); err != nil || !more {
				return err
			}
			if err := s.Skip(depth + 1); err != nil {
				return err
			}
		}
	case c == '"':
		// Held to encoding/json's rules without unquoting it.
		s.pos++
		b, isPlain, err := s.str()
		if err == nil && !isPlain && !json.Valid(b) {
			return s.errorf("invalid string %q", b)
		}
		return err
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	case c == '-' || c >= '0' && c <= '9':
		_, err := s.number()
		return err
	}
	return s.errorf("invalid character %q looking for the beginning of a value", c)
}

// Raw consumes one value and returns its text, for json.Unmarshal.
func (s *Scanner) Raw() ([]byte, error) {
	if _, err := s.peek(); err != nil {
		return nil, err
	}
	s.raw, s.mark = s.raw[:0], s.pos
	err := s.Skip(0)
	if err == nil {
		s.raw = append(s.raw, s.win[s.mark:s.pos]...)
	}
	s.mark = -1
	return s.raw, err
}

// Array is the array behind a slice field, which a reader may keep from one
// decoded value to the next so that decoding allocates only when a slice
// outgrows every one before it. Its zero value is an empty array.
type Array[T any] struct {
	// buf[:len] are the elements decoded into since the last Reset; the
	// rest of its capacity counts as zero.
	buf []T
}

// Reset starts the next value: its slice field starts nil, with no
// elements behind it.
func (a *Array[T]) Reset() { a.buf = a.buf[:0] }

// Decode decodes an array, or null, as encoding/json decodes it into a
// slice field that a's elements are behind, and returns the field's new
// value: null is nil and [] an empty slice with no array behind it (so the
// next value decoded starts from zero elements); otherwise element i goes
// into the array's element i, and an element an earlier value decoded keeps
// what this one does not set. elem decodes one element that is not null
// (null leaves it as it is).
func (a *Array[T]) Decode(s *Scanner, elem func(*Scanner, *T) error) ([]T, error) {
	if null, err := s.Null(); null || err != nil {
		a.Reset()
		return nil, err
	}
	if err := s.Expect('['); err != nil {
		return nil, err
	}
	n := 0
	for first := true; ; first = false {
		more, err := s.Next(']', first)
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		if n == len(a.buf) {
			if n == cap(a.buf) {
				// Doubling, the array is copied about once on its way to
				// any length, and holds at most twice what arrived.
				a.buf = slices.Grow(a.buf, max(n, 16))
			}
			var zero T
			a.buf = append(a.buf, zero)
		}
		if null, err := s.Null(); err != nil {
			return nil, err
		} else if !null {
			if err := elem(s, &a.buf[n]); err != nil {
				return nil, err
			}
		}
		n++
	}
	if n == 0 {
		a.Reset()
		return []T{}, nil
	}
	return a.buf[:n], nil
}
