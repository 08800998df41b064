package imgfmt

import (
	"archive/tar"
	"bytes"
	"fmt"
)

// The ustar header block, as far as this writer patches it. In a header of
// this package only the name (split over the name and prefix fields), the
// size and the checksum differ from entry to entry: mode, owner and mtime
// are the package's constants.
const (
	tarBlock = 512

	tarNameOff, tarNameLen     = 0, 100
	tarSizeOff, tarSizeDigits  = 124, 11
	tarSumOff, tarSumDigits    = 148, 6
	tarSumLen                  = 8 // the digits, a NUL, a space
	tarPrefixOff, tarPrefixLen = 345, 155

	// tarMaxSize is the largest size the octal size field holds; beyond it
	// the size travels in a PAX record.
	tarMaxSize = 1<<(3*tarSizeDigits) - 1
	// tarTrailer is the end of an archive: two zero blocks.
	tarTrailer = 2 * tarBlock
)

// tarPadding is the zero bytes that follow size bytes of content, up to the
// next block.
func tarPadding(size int64) int { return int(-size & (tarBlock - 1)) }

// tarHeaders is the one builder of tar entry headers: TarSink's and
// WriteSegment's directories and files (the files' in the body workers) and
// Stitcher's rewritten headers all come from it, which is what makes
// "segment-stitched equals monolithic" true byte for byte.
//
// archive/tar formats a header field by field on every call; here it
// renders each kind of entry once, with an empty name and size 0, and the
// builder patches name, size and checksum into a copy of that block. An
// entry such a block cannot hold — a name that is not ASCII or does not
// split into ustar's 100 + 155 bytes, or a size of 8 GiB or more — is
// written by archive/tar itself (its PAX route), so the output is
// archive/tar's either way. A tarHeaders is read-only once built and safe to share.
type tarHeaders struct {
	file, dir tarTemplate
}

func newTarHeaders() *tarHeaders {
	h := &tarHeaders{}
	entry := tar.Header{Uid: ownerID, Gid: ownerID, ModTime: DefaultModTime}
	entry.Typeflag, entry.Mode = tar.TypeReg, filePerm
	h.file.init(entry)
	entry.Typeflag, entry.Mode = tar.TypeDir, dirPerm
	h.dir.init(entry)
	return h
}

// tarTemplate builds the headers of one kind of entry.
type tarTemplate struct {
	proto tar.Header     // what archive/tar is given, Name and Size aside
	block [tarBlock]byte // its rendering of proto: one ustar header
	sum   uint32         // block's checksum with the checksum field blank
}

func (t *tarTemplate) init(proto tar.Header) {
	t.proto = proto
	b, _ := t.appendStdlib(nil, nil, 0)
	copy(t.block[:], b)
	// The checksum counts its own field as spaces.
	t.sum = tarSumLen * ' '
	for i, c := range t.block {
		if i < tarSumOff || i >= tarSumOff+tarSumLen {
			t.sum += uint32(c)
		}
	}
}

// append appends the header of the entry called name, of size bytes, to
// dst: one block, or whatever archive/tar makes of an entry ustar cannot
// hold.
func (t *tarTemplate) append(dst, name []byte, size int64) ([]byte, error) {
	var sum uint32
	ascii := true // as archive/tar has it: no NUL either
	for _, c := range name {
		sum += uint32(c)
		if c == 0 || c >= 0x80 {
			ascii = false
		}
	}
	split, ok := -1, ascii && size >= 0 && size <= tarMaxSize
	if ok && len(name) > tarNameLen {
		split, ok = ustarSplit(name)
	}
	if ok && t.proto.Typeflag == tar.TypeReg && len(name) > 0 && name[len(name)-1] == '/' {
		ok = false // archive/tar refuses a regular file so named
	}
	if !ok {
		return t.appendStdlib(dst, name, size)
	}
	base := len(dst)
	dst = append(dst, t.block[:]...)
	b := dst[base:]
	if split >= 0 {
		copy(b[tarPrefixOff:tarPrefixOff+tarPrefixLen], name[:split])
		sum -= '/' // the slash at split is in neither field
	}
	copy(b[tarNameOff:tarNameOff+tarNameLen], name[split+1:])
	for i := tarSizeDigits - 1; i >= 0; i-- {
		b[tarSizeOff+i] = '0' + byte(size&7)
		sum += uint32(size & 7)
		size >>= 3
	}
	sum += t.sum
	for i := tarSumDigits - 1; i >= 0; i-- {
		b[tarSumOff+i] = '0' + byte(sum&7)
		sum >>= 3
	}
	return dst, nil
}

// ustarSplit finds the slash at which a name longer than the name field
// splits into prefix and name, the way archive/tar chooses it: the last one
// that leaves a prefix of at most 155 bytes and a non-empty name (a trailing
// slash aside) of at most 100.
func ustarSplit(name []byte) (int, bool) {
	limit := len(name)
	if limit > tarPrefixLen+1 {
		limit = tarPrefixLen + 1
	} else if name[limit-1] == '/' {
		limit--
	}
	i := bytes.LastIndexByte(name[:limit], '/')
	return i, i > 0 && len(name)-i-1 <= tarNameLen
}

// appendStdlib appends the entry's header as a one-shot archive/tar writer
// writes it. It is the only archive/tar writer outside the tests, and it
// serves twice: it renders the templates, and it writes every entry they
// cannot.
func (t *tarTemplate) appendStdlib(dst, name []byte, size int64) ([]byte, error) {
	hdr := t.proto
	hdr.Name, hdr.Size = string(name), size
	var buf bytes.Buffer
	// WriteHeader alone: the caller supplies body and padding, as it does
	// behind a patched header.
	if err := tar.NewWriter(&buf).WriteHeader(&hdr); err != nil {
		return dst, fmt.Errorf("imgfmt: writing tar header for %q: %w", name, err)
	}
	return append(dst, buf.Bytes()...), nil
}
