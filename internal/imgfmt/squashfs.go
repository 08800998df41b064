package imgfmt

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strconv"

	"impressions/internal/fsimage"
)

// Squashfs v4 on-disk constants. The writer emits a fully uncompressed
// image: every data block and metadata block is stored raw (with the
// uncompressed marker set), so serialization is pure sequential copying —
// no compressor in the loop — and the file still mounts with any squashfs
// driver because the superblock flags declare the layout.
const (
	squashfsMagic     = 0x73717368
	squashfsBlockSize = 128 * 1024 // data block size (block_log 17)
	squashfsBlockLog  = 17
	squashfsMetaSize  = 8192 // metadata block payload size

	// Superblock flags: uncompressed inodes | uncompressed data |
	// no fragments | no xattrs | uncompressed ids.
	squashfsFlags = 0x0001 | 0x0002 | 0x0010 | 0x0200 | 0x0800

	squashfsCompZlib = 1 // declared compressor (unused: every block is raw)

	// Inode types. The writer always emits the extended forms: their fixed
	// sizes make every table position a pure function of the counts, which
	// is what lets the whole image stream out in one sequential pass.
	squashfsTypeDir      = 1 // basic type code used in directory entries
	squashfsTypeReg      = 2
	squashfsTypeExtDir   = 8
	squashfsTypeExtReg   = 9
	squashfsLdirSize     = 40 // extended directory inode byte size
	squashfsLregBaseSize = 56 // extended file inode byte size before block list

	squashfsDirHeaderSize = 12 // directory listing header
	squashfsDirEntrySize  = 8  // directory listing entry before the name

	// A stored data block size with this bit set is uncompressed.
	squashfsBlockUncompressed = 1 << 24

	squashfsInvalidBlk = ^uint64(0)
	squashfsSuperSize  = 96
	squashfsPad        = 4096
)

// SquashfsSink is the streaming squashfs materializer: a RecordSink that
// serializes the canonical record stream into an uncompressed squashfs v4
// image on a WriteSeeker. File content fills the data area in stream order
// through an fsimage.ImageBody, as for TarSink. Close lays down the inode,
// directory, and id tables from the compact directory tree plus per-file
// integer columns — the sink never holds file names in memory, and content
// only in the workers' chunks — and seeks back to patch the superblock. The
// result mounts directly: `mount -o loop image.squashfs /mnt`, no mkfs, no
// root at build time. A method that returns an error has stopped the
// workers: a failed sink needs no Close.
type SquashfsSink struct {
	w    io.WriteSeeker
	base int64 // w's offset at the image's first byte
	opts Options
	body *fsimage.ImageBody // its Pos is the image's size so far
	ts   fsimage.TreeSink
	// Per-file integer columns: names are regenerated from the ID and the
	// interned name suffix, sizes drive the block lists and the data
	// offsets. A directory's files are a range of IDs (the canonical order
	// is directory-major), which the FileCounts ts restores delimit.
	fileSize   []int64
	fileSuffix []int32
	suffixes   []string
	suffixIdx  map[string]int32

	nameBuf []byte
	scratch [64]byte
}

// NewSquashfsSink starts a squashfs serialization onto w, from w's offset
// (the superblock placeholder is the image's first bytes; Close seeks back
// to patch it). A w that cannot seek, such as a pipe, is refused before a
// byte is written: Close could not patch the superblock.
func NewSquashfsSink(w io.WriteSeeker, opts Options) (*SquashfsSink, error) {
	base, err := w.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil, fmt.Errorf("imgfmt: squashfs needs a destination that can seek: %w", err)
	}
	opts = opts.WithDefaults(opts.Seed)
	s := &SquashfsSink{
		w:    w,
		base: base,
		opts: opts,
		body: fsimage.NewImageBody(opts, w, nil),

		suffixIdx: make(map[string]int32),
	}
	// Reserve the superblock; data blocks start right behind it.
	if _, err := s.body.Write(zeroBlock[:squashfsSuperSize]); err != nil {
		return nil, err
	}
	return s, nil
}

// AddDir records the directory; squashfs directories produce no data
// blocks, so nothing is written until Close.
func (s *SquashfsSink) AddDir(d fsimage.DirRecord) error {
	if err := s.opts.Context.Err(); err != nil {
		return s.body.Fail(err)
	}
	if err := s.ts.AddDir(d); err != nil {
		return s.body.Fail(err)
	}
	s.body.AddDir(s.ts.Tree(), d.ID)
	return nil
}

// appendNamePrefix appends the part of file id's name its ID makes,
// "file%08d".
func (s *SquashfsSink) appendNamePrefix(dst []byte, id int) []byte {
	dst = append(dst, "file"...)
	digits := len(strconv.AppendInt(s.scratch[:0], int64(id), 10))
	for pad := 8 - digits; pad > 0; pad-- {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(id), 10)
}

// appendFileName rebuilds file i's name into dst from its ID and interned
// suffix — the inverse of the split done in AddFile.
func (s *SquashfsSink) appendFileName(dst []byte, id int) []byte {
	return append(s.appendNamePrefix(dst, id), s.suffixes[s.fileSuffix[id]]...)
}

// AddFile queues the file's content for the data area and retains only
// integer columns (size, name-suffix index).
func (s *SquashfsSink) AddFile(f fsimage.File) error {
	if err := s.ts.AddFile(f); err != nil {
		return s.body.Fail(err)
	}
	// The name must be reconstructible as "file%08d" + suffix, or the
	// emitted listing would silently diverge from the canonical stream.
	prefix := s.appendNamePrefix(s.nameBuf[:0], f.ID)
	s.nameBuf = prefix
	if len(f.Name) < len(prefix) || f.Name[:len(prefix)] != string(prefix) {
		return s.body.Fail(fmt.Errorf("imgfmt: file %d name %q does not match canonical naming: %w", f.ID, f.Name, fsimage.ErrManifestIntegrity))
	}
	suffix := f.Name[len(prefix):]
	idx, ok := s.suffixIdx[suffix]
	if !ok {
		idx = int32(len(s.suffixes))
		s.suffixes = append(s.suffixes, suffix)
		s.suffixIdx[suffix] = idx
	}
	s.fileSize = append(s.fileSize, f.Size)
	s.fileSuffix = append(s.fileSuffix, idx)
	return s.body.AddFile(f)
}

// Written returns the content bytes written so far.
func (s *SquashfsSink) Written() int64 { return s.body.Written() }

// inodeLayout precomputes every inode's position in the inode table: with
// fixed-size extended inodes the table layout is a pure function of the
// counts, so directory listings can reference inode locations before a
// single table byte exists.
type inodeLayout struct {
	dirU  []int64 // uncompressed offset of each directory inode
	fileU []int64 // uncompressed offset of each file inode
	total int64
}

// metaRef converts an uncompressed metadata-stream offset into the on-disk
// (block, offset) reference form. Valid because the meta writer emits only
// full 8192-byte blocks before the final one.
func metaRef(u int64) (block uint32, off uint16) {
	return uint32(u / squashfsMetaSize * (squashfsMetaSize + 2)), uint16(u % squashfsMetaSize)
}

func (s *SquashfsSink) layoutInodes(dirCount int) inodeLayout {
	var l inodeLayout
	l.dirU = make([]int64, dirCount)
	u := int64(0)
	for i := range l.dirU {
		l.dirU[i] = u
		u += squashfsLdirSize
	}
	l.fileU = make([]int64, len(s.fileSize))
	for i, sz := range s.fileSize {
		l.fileU[i] = u
		u += squashfsLregBaseSize + 4*s.nblocks(sz)
	}
	l.total = u
	return l
}

func (s *SquashfsSink) nblocks(size int64) int64 {
	return (size + squashfsBlockSize - 1) / squashfsBlockSize
}

// childOrder flattens, per directory, the name-sorted child entries.
// Values encode subdirectories as -(dirID+1) and files as fileID+1.
type childOrder struct {
	entries []int32
	start   []int32 // per-dir offsets into entries (len dirCount+1)
}

func (s *SquashfsSink) orderChildren() childOrder {
	tree := s.ts.Tree()
	dirCount := tree.Len()
	counts := make([]int32, dirCount+1)
	for id := 1; id < dirCount; id++ {
		counts[tree.Dirs[id].Parent+1]++
	}
	for d := range dirCount {
		counts[d+1] += int32(tree.Dirs[d].FileCount)
	}
	start := make([]int32, dirCount+1)
	for i := 1; i <= dirCount; i++ {
		start[i] = start[i-1] + counts[i]
	}
	entries := make([]int32, start[dirCount])
	cursor := make([]int32, dirCount)
	copy(cursor, start[:dirCount])
	for id := 1; id < dirCount; id++ {
		p := tree.Dirs[id].Parent
		entries[cursor[p]] = int32(-(id + 1))
		cursor[p]++
	}
	// A directory's files are the next FileCount IDs: the order is
	// directory-major.
	var id int32
	for d := range dirCount {
		for range tree.Dirs[d].FileCount {
			entries[cursor[d]] = id + 1
			cursor[d]++
			id++
		}
	}
	// Sort each directory's children by name. Subdirs land first in the
	// bucket and files second, both already in ID order; the final listing
	// must be name-sorted, so sort with regenerated names.
	var a, b []byte
	for d := 0; d < dirCount; d++ {
		seg := entries[start[d]:start[d+1]]
		sort.SliceStable(seg, func(i, j int) bool {
			a = s.appendChildName(a[:0], seg[i])
			b = s.appendChildName(b[:0], seg[j])
			return string(a) < string(b)
		})
	}
	return childOrder{entries: entries, start: start}
}

func (s *SquashfsSink) appendChildName(dst []byte, code int32) []byte {
	if code < 0 {
		return append(dst, s.ts.Tree().Dirs[-code-1].Name...)
	}
	return s.appendFileName(dst, int(code-1))
}

// listingRun returns how many entries, from seg[i] on, one listing header
// covers — the longest run sharing the metadata block of their inodes, at
// most 256 and within a signed-16-bit inode delta of the first — with that
// block and the first entry's inode number. Entry runs break into a fresh
// header wherever squashfs requires it.
func (s *SquashfsSink) listingRun(seg []int32, i int, layout inodeLayout) (n int, block, base uint32) {
	block, _ = metaRef(s.childInodeU(seg[i], layout))
	base = s.childInodeNumber(seg[i])
	for ; i+n < len(seg) && n < 256; n++ {
		blk, _ := metaRef(s.childInodeU(seg[i+n], layout))
		delta := int64(s.childInodeNumber(seg[i+n])) - int64(base)
		if blk != block || delta < -32768 || delta > 32767 {
			break
		}
	}
	return n, block, base
}

// listingSize returns the byte size of dir's listing, from its header runs
// and its entries' name lengths, without rendering the listing.
func (s *SquashfsSink) listingSize(dir int, order childOrder, layout inodeLayout) int64 {
	seg := order.entries[order.start[dir]:order.start[dir+1]]
	var size int64
	for i := 0; i < len(seg); {
		n, _, _ := s.listingRun(seg, i, layout)
		size += squashfsDirHeaderSize + int64(n)*squashfsDirEntrySize
		for _, code := range seg[i : i+n] {
			s.nameBuf = s.appendChildName(s.nameBuf[:0], code)
			size += int64(len(s.nameBuf))
		}
		i += n
	}
	return size
}

// writeListing emits dir's listing to out.
func (s *SquashfsSink) writeListing(dir int, order childOrder, layout inodeLayout, out io.Writer) error {
	seg := order.entries[order.start[dir]:order.start[dir+1]]
	buf := s.scratch[:0]
	for i := 0; i < len(seg); {
		n, firstBlock, baseInode := s.listingRun(seg, i, layout)
		buf = buf[:0]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n-1))
		buf = binary.LittleEndian.AppendUint32(buf, firstBlock)
		buf = binary.LittleEndian.AppendUint32(buf, baseInode)
		if _, err := out.Write(buf); err != nil {
			return err
		}
		for k := 0; k < n; k++ {
			code := seg[i+k]
			_, off := metaRef(s.childInodeU(code, layout))
			delta := int64(s.childInodeNumber(code)) - int64(baseInode)
			etype := uint16(squashfsTypeReg)
			if code < 0 {
				etype = squashfsTypeDir
			}
			s.nameBuf = s.appendChildName(s.nameBuf[:0], code)
			buf = buf[:0]
			buf = binary.LittleEndian.AppendUint16(buf, off)
			buf = binary.LittleEndian.AppendUint16(buf, uint16(int16(delta)))
			buf = binary.LittleEndian.AppendUint16(buf, etype)
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s.nameBuf)-1))
			if _, err := out.Write(buf); err != nil {
				return err
			}
			if _, err := out.Write(s.nameBuf); err != nil {
				return err
			}
		}
		i += n
	}
	return nil
}

func (s *SquashfsSink) childInodeU(code int32, layout inodeLayout) int64 {
	if code < 0 {
		return layout.dirU[-code-1]
	}
	return layout.fileU[code-1]
}

// childInodeNumber maps a child to its inode number: directories take
// 1..D (dirID+1), files take D+1..D+F.
func (s *SquashfsSink) childInodeNumber(code int32) uint32 {
	if code < 0 {
		return uint32(-code)
	}
	return uint32(s.ts.Tree().Len() + int(code))
}

// metaWriter packs a metadata stream into 8192-byte uncompressed metadata
// blocks, each prefixed with its 2-byte length header.
type metaWriter struct {
	out  io.Writer
	buf  [squashfsMetaSize]byte
	n    int
	u    int64 // uncompressed bytes accepted
	disk int64 // disk bytes emitted
}

func (m *metaWriter) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		c := copy(m.buf[m.n:], p)
		m.n += c
		p = p[c:]
		if m.n == squashfsMetaSize {
			if err := m.flush(); err != nil {
				return total - len(p), err
			}
		}
	}
	m.u += int64(total)
	return total, nil
}

func (m *metaWriter) flush() error {
	if m.n == 0 {
		return nil
	}
	var hdr [2]byte
	binary.LittleEndian.PutUint16(hdr[:], uint16(m.n)|0x8000)
	if _, err := m.out.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := m.out.Write(m.buf[:m.n]); err != nil {
		return err
	}
	m.disk += int64(2 + m.n)
	m.n = 0
	return nil
}

// Close finishes the image: the file bodies still queued, then the inode
// table, directory table, id table, pad, and the patched superblock. The
// sink must not be used afterwards.
func (s *SquashfsSink) Close() error {
	if err := s.body.Close(); err != nil {
		return err
	}
	// The data area is the file bodies back to back behind the superblock,
	// as the engine placed them; the inode table's start offsets are the
	// same running sum.
	dataEnd := s.body.Pos()
	tree := s.ts.Tree()
	dirCount := tree.Len()
	if dirCount == 0 {
		return fmt.Errorf("imgfmt: squashfs image has no directories (stream not consumed)")
	}
	fileCount := len(s.fileSize)
	layout := s.layoutInodes(dirCount)
	order := s.orderChildren()

	// Size every directory listing to learn its position in the directory
	// table before the inode table (which references those positions) is
	// written.
	listStart := make([]int64, dirCount)
	listSize := make([]int64, dirCount)
	var cursor int64
	for d := 0; d < dirCount; d++ {
		listStart[d] = cursor
		listSize[d] = s.listingSize(d, order, layout)
		cursor += listSize[d]
	}

	// Subdir counts drive nlink.
	subdirs := make([]int32, dirCount)
	for id := 1; id < dirCount; id++ {
		subdirs[tree.Dirs[id].Parent]++
	}

	// The identity table holds the one id that owns and groups every inode.
	ids := []uint32{ownerID}
	mtime := uint32(DefaultModTime.Unix())

	// Inode table.
	inodeTableStart := s.body.Pos()
	mw := &metaWriter{out: s.body}
	buf := make([]byte, 0, 256)
	for d := 0; d < dirCount; d++ {
		if mw.u != layout.dirU[d] {
			return fmt.Errorf("imgfmt: internal error: dir inode %d at offset %d, layout says %d", d, mw.u, layout.dirU[d])
		}
		parentInode := uint32(dirCount + fileCount + 1) // root's parent is the fictitious inode past the end
		if d > 0 {
			parentInode = uint32(tree.Dirs[d].Parent + 1)
		}
		blk, off := metaRef(listStart[d])
		buf = buf[:0]
		buf = binary.LittleEndian.AppendUint16(buf, squashfsTypeExtDir)
		buf = binary.LittleEndian.AppendUint16(buf, dirPerm)
		buf = binary.LittleEndian.AppendUint16(buf, 0) // uid index
		buf = binary.LittleEndian.AppendUint16(buf, 0) // gid index
		buf = binary.LittleEndian.AppendUint32(buf, mtime)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d+1)) // inode number
		buf = binary.LittleEndian.AppendUint32(buf, uint32(2+subdirs[d]))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(listSize[d]+3))
		buf = binary.LittleEndian.AppendUint32(buf, blk)
		buf = binary.LittleEndian.AppendUint32(buf, parentInode)
		buf = binary.LittleEndian.AppendUint16(buf, 0) // i_count: no indexes
		buf = binary.LittleEndian.AppendUint16(buf, off)
		buf = binary.LittleEndian.AppendUint32(buf, 0xFFFFFFFF) // xattr
		if _, err := mw.Write(buf); err != nil {
			return err
		}
	}
	dataStart := int64(squashfsSuperSize) // file i's, a running sum of the sizes before it
	for i := 0; i < fileCount; i++ {
		if mw.u != layout.fileU[i] {
			return fmt.Errorf("imgfmt: internal error: file inode %d at offset %d, layout says %d", i, mw.u, layout.fileU[i])
		}
		size := s.fileSize[i]
		buf = buf[:0]
		buf = binary.LittleEndian.AppendUint16(buf, squashfsTypeExtReg)
		buf = binary.LittleEndian.AppendUint16(buf, filePerm)
		buf = binary.LittleEndian.AppendUint16(buf, 0)
		buf = binary.LittleEndian.AppendUint16(buf, 0)
		buf = binary.LittleEndian.AppendUint32(buf, mtime)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(dirCount+1+i))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(dataStart))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(size))
		buf = binary.LittleEndian.AppendUint64(buf, 0) // sparse
		buf = binary.LittleEndian.AppendUint32(buf, 1) // nlink
		buf = binary.LittleEndian.AppendUint32(buf, 0xFFFFFFFF)
		buf = binary.LittleEndian.AppendUint32(buf, 0) // block offset
		buf = binary.LittleEndian.AppendUint32(buf, 0xFFFFFFFF)
		for remaining := size; remaining > 0; remaining -= squashfsBlockSize {
			n := remaining
			if n > squashfsBlockSize {
				n = squashfsBlockSize
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(n)|squashfsBlockUncompressed)
		}
		if _, err := mw.Write(buf); err != nil {
			return err
		}
		dataStart += size
	}
	if dataStart != dataEnd {
		return fmt.Errorf("imgfmt: internal error: squashfs data area ends at offset %d, the file sizes say %d", dataEnd, dataStart)
	}
	if err := mw.flush(); err != nil {
		return err
	}

	// Directory table.
	dirTableStart := s.body.Pos()
	mw = &metaWriter{out: s.body}
	for d := 0; d < dirCount; d++ {
		if mw.u != listStart[d] {
			return fmt.Errorf("imgfmt: internal error: listing %d at offset %d, its sizes said %d", d, mw.u, listStart[d])
		}
		if err := s.writeListing(d, order, layout, mw); err != nil {
			return err
		}
	}
	if err := mw.flush(); err != nil {
		return err
	}

	// Id table: one metadata block of u32 ids, then the u64 block index.
	idBlockStart := s.body.Pos()
	mw = &metaWriter{out: s.body}
	buf = buf[:0]
	for _, id := range ids {
		buf = binary.LittleEndian.AppendUint32(buf, id)
	}
	if _, err := mw.Write(buf); err != nil {
		return err
	}
	if err := mw.flush(); err != nil {
		return err
	}
	idTableStart := s.body.Pos()
	buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(idBlockStart))
	if _, err := s.body.Write(buf); err != nil {
		return err
	}

	bytesUsed := s.body.Pos()
	for s.body.Pos()%squashfsPad != 0 {
		n := squashfsPad - s.body.Pos()%squashfsPad
		if n > int64(len(zeroBlock)) {
			n = int64(len(zeroBlock))
		}
		if _, err := s.body.Write(zeroBlock[:n]); err != nil {
			return err
		}
	}
	if err := s.body.Flush(); err != nil {
		return fmt.Errorf("imgfmt: flushing squashfs image: %w", err)
	}

	// Patch the superblock.
	rootBlk, rootOff := metaRef(layout.dirU[0])
	buf = buf[:0]
	buf = binary.LittleEndian.AppendUint32(buf, squashfsMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(dirCount+fileCount))
	buf = binary.LittleEndian.AppendUint32(buf, mtime)
	buf = binary.LittleEndian.AppendUint32(buf, squashfsBlockSize)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // fragments
	buf = binary.LittleEndian.AppendUint16(buf, squashfsCompZlib)
	buf = binary.LittleEndian.AppendUint16(buf, squashfsBlockLog)
	buf = binary.LittleEndian.AppendUint16(buf, squashfsFlags)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(ids)))
	buf = binary.LittleEndian.AppendUint16(buf, 4) // version major
	buf = binary.LittleEndian.AppendUint16(buf, 0) // version minor
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rootBlk)<<16|uint64(rootOff))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(bytesUsed))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(idTableStart))
	buf = binary.LittleEndian.AppendUint64(buf, squashfsInvalidBlk) // xattr table
	buf = binary.LittleEndian.AppendUint64(buf, uint64(inodeTableStart))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(dirTableStart))
	buf = binary.LittleEndian.AppendUint64(buf, squashfsInvalidBlk) // fragment table
	buf = binary.LittleEndian.AppendUint64(buf, squashfsInvalidBlk) // export lookup table
	if len(buf) != squashfsSuperSize {
		return fmt.Errorf("imgfmt: internal error: superblock is %d bytes", len(buf))
	}
	if _, err := s.w.Seek(s.base, io.SeekStart); err != nil {
		return fmt.Errorf("imgfmt: seeking to squashfs superblock: %w", err)
	}
	if _, err := (fullWriter{s.w}).Write(buf); err != nil {
		return fmt.Errorf("imgfmt: patching squashfs superblock: %w", err)
	}
	return nil
}
