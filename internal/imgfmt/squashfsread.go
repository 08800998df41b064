package imgfmt

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"impressions/internal/fsimage"
)

// The reader half of the squashfs support: enough of a squashfs v4 parser
// to walk the superblock, inode table, and directory tables of images
// produced by SquashfsSink (uncompressed, no fragments, extended inodes)
// and extract them to a directory. Tests use it to prove round-trip
// equality with the VFS materializer without needing mount privileges or
// external tools; it deliberately rejects anything the sink does not emit,
// and every rejection of image bytes wraps fsimage.ErrManifestIntegrity.

// errImage is the reader's rejection of image bytes.
func errImage(format string, args ...any) error {
	return fmt.Errorf("imgfmt: "+format+": %w", append(args, fsimage.ErrManifestIntegrity)...)
}

type sqSuper struct {
	inodes          uint32
	blockSize       uint32
	flags           uint16
	noIDs           uint16
	rootInode       uint64
	bytesUsed       int64
	idTableStart    int64
	inodeTableStart int64
	dirTableStart   int64
}

func readSuper(r io.ReaderAt) (*sqSuper, error) {
	buf := make([]byte, squashfsSuperSize)
	if _, err := r.ReadAt(buf, 0); err != nil {
		return nil, errImage("reading squashfs superblock: %w", err)
	}
	le := binary.LittleEndian
	if le.Uint32(buf[0:]) != squashfsMagic {
		return nil, errImage("bad squashfs magic %#x", le.Uint32(buf[0:]))
	}
	if major, minor := le.Uint16(buf[28:]), le.Uint16(buf[30:]); major != 4 || minor != 0 {
		return nil, errImage("unsupported squashfs version %d.%d", major, minor)
	}
	s := &sqSuper{
		inodes:          le.Uint32(buf[4:]),
		blockSize:       le.Uint32(buf[12:]),
		flags:           le.Uint16(buf[24:]),
		noIDs:           le.Uint16(buf[26:]),
		rootInode:       le.Uint64(buf[32:]),
		bytesUsed:       int64(le.Uint64(buf[40:])),
		idTableStart:    int64(le.Uint64(buf[48:])),
		inodeTableStart: int64(le.Uint64(buf[64:])),
		dirTableStart:   int64(le.Uint64(buf[72:])),
	}
	if s.flags&squashfsFlags != squashfsFlags {
		return nil, errImage("squashfs image is not fully uncompressed (flags %#x)", s.flags)
	}
	if fragments := le.Uint32(buf[16:]); fragments != 0 {
		return nil, errImage("squashfs image has %d fragments; reader supports none", fragments)
	}
	return s, nil
}

// metaTable is a fully loaded metadata stream: concatenated block payloads
// plus the mapping from on-disk block offsets (the reference form) back to
// uncompressed offsets.
type metaTable struct {
	data   []byte
	blockU map[uint32]int64
}

func loadMetaTable(r io.ReaderAt, start, end int64) (*metaTable, error) {
	t := &metaTable{blockU: make(map[uint32]int64)}
	var hdr [2]byte
	for off := start; off < end; {
		if _, err := r.ReadAt(hdr[:], off); err != nil {
			return nil, errImage("reading metadata block header at %d: %w", off, err)
		}
		word := binary.LittleEndian.Uint16(hdr[:])
		if word&0x8000 == 0 {
			return nil, errImage("compressed metadata block at %d; reader supports uncompressed only", off)
		}
		size := int64(word & 0x7FFF)
		if size == 0 || off+2+size > end {
			return nil, errImage("metadata block at %d overruns table end %d", off, end)
		}
		payload := make([]byte, size)
		if _, err := r.ReadAt(payload, off+2); err != nil {
			return nil, errImage("reading metadata block at %d: %w", off, err)
		}
		t.blockU[uint32(off-start)] = int64(len(t.data))
		t.data = append(t.data, payload...)
		off += 2 + size
	}
	return t, nil
}

// at resolves a (block, offset) metadata reference to the remaining stream.
func (t *metaTable) at(block uint32, off uint16) ([]byte, error) {
	u, ok := t.blockU[block]
	if !ok {
		return nil, errImage("metadata reference to unknown block %d", block)
	}
	pos := u + int64(off)
	if pos > int64(len(t.data)) {
		return nil, errImage("metadata reference %d+%d beyond stream", block, off)
	}
	return t.data[pos:], nil
}

type sqInode struct {
	typ         uint16
	inodeNumber uint32

	// directories
	listBlock  uint32
	listOffset uint16
	listSize   int64 // raw file_size field (listing bytes + 3)

	// regular files
	dataStart int64
	size      int64
}

func (t *metaTable) inodeAt(block uint32, off uint16) (*sqInode, error) {
	b, err := t.at(block, off)
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	if len(b) < 2 {
		return nil, errImage("truncated inode at %d+%d", block, off)
	}
	ino := &sqInode{typ: le.Uint16(b[0:])}
	switch ino.typ {
	case squashfsTypeExtDir:
		if len(b) < squashfsLdirSize {
			return nil, errImage("truncated directory inode at %d+%d", block, off)
		}
		ino.inodeNumber = le.Uint32(b[12:])
		ino.listSize = int64(le.Uint32(b[20:]))
		ino.listBlock = le.Uint32(b[24:])
		ino.listOffset = le.Uint16(b[34:])
	case squashfsTypeExtReg:
		if len(b) < squashfsLregBaseSize {
			return nil, errImage("truncated file inode at %d+%d", block, off)
		}
		ino.inodeNumber = le.Uint32(b[12:])
		ino.dataStart = int64(le.Uint64(b[16:]))
		ino.size = int64(le.Uint64(b[24:]))
		if ino.dataStart < 0 || ino.size < 0 {
			return nil, errImage("file inode %d has data at %d of %d bytes", ino.inodeNumber, ino.dataStart, ino.size)
		}
		// Sanity-check the block list: uncompressed blocks covering the
		// full size, nothing more.
		nblocks := (ino.size + squashfsBlockSize - 1) / squashfsBlockSize
		if len(b) < squashfsLregBaseSize+int(nblocks)*4 {
			return nil, errImage("file inode %d block list truncated", ino.inodeNumber)
		}
		for i := int64(0); i < nblocks; i++ {
			word := le.Uint32(b[squashfsLregBaseSize+int(i)*4:])
			if word&squashfsBlockUncompressed == 0 {
				return nil, errImage("file inode %d has a compressed data block", ino.inodeNumber)
			}
			want := ino.size - i*squashfsBlockSize
			if want > squashfsBlockSize {
				want = squashfsBlockSize
			}
			if int64(word&^uint32(squashfsBlockUncompressed)) != want {
				return nil, errImage("file inode %d block %d is %d bytes, want %d",
					ino.inodeNumber, i, word&^uint32(squashfsBlockUncompressed), want)
			}
		}
	default:
		return nil, errImage("unsupported inode type %d at %d+%d", ino.typ, block, off)
	}
	return ino, nil
}

type sqReader struct {
	r      io.ReaderAt
	super  *sqSuper
	inodes *metaTable
	dirs   *metaTable
	// extracted holds the directory inodes extracted, by reference: one
	// listed again is a cycle. listed counts the listing bytes walked, which
	// the sink lays end to end, one listing per directory.
	extracted map[uint64]bool
	listed    int64
}

func openSquashfs(r io.ReaderAt) (*sqReader, error) {
	super, err := readSuper(r)
	if err != nil {
		return nil, err
	}
	// The id table's first metadata block sits right after the directory
	// table; its index (pointed to by id_table_start) tells us where.
	var idx [8]byte
	if _, err := r.ReadAt(idx[:], super.idTableStart); err != nil {
		return nil, errImage("reading squashfs id table index: %w", err)
	}
	dirTableEnd := int64(binary.LittleEndian.Uint64(idx[:]))
	if dirTableEnd < super.dirTableStart || dirTableEnd > super.bytesUsed {
		return nil, errImage("id table block offset %d outside image", dirTableEnd)
	}
	inodes, err := loadMetaTable(r, super.inodeTableStart, super.dirTableStart)
	if err != nil {
		return nil, err
	}
	dirs, err := loadMetaTable(r, super.dirTableStart, dirTableEnd)
	if err != nil {
		return nil, err
	}
	return &sqReader{r: r, super: super, inodes: inodes, dirs: dirs, extracted: make(map[uint64]bool)}, nil
}

// extractDir recreates the subtree of the directory inode at ref under
// path, which exists. Entries are created with the sink's permissions.
func (q *sqReader) extractDir(ino *sqInode, ref uint64, path string, copyBuf []byte) error {
	if q.extracted[ref] {
		return errImage("directory inode %d is listed twice", ino.inodeNumber)
	}
	q.extracted[ref] = true
	if ino.listSize < 3 {
		return errImage("directory inode %d has listing size %d", ino.inodeNumber, ino.listSize)
	}
	listing, err := q.dirs.at(ino.listBlock, ino.listOffset)
	if err != nil {
		return err
	}
	remaining := ino.listSize - 3
	if q.listed += remaining; remaining > int64(len(listing)) || q.listed > int64(len(q.dirs.data)) {
		return errImage("directory inode %d listing overruns table", ino.inodeNumber)
	}
	listing = listing[:remaining]
	le := binary.LittleEndian
	for len(listing) > 0 {
		if len(listing) < squashfsDirHeaderSize {
			return errImage("truncated directory header in inode %d", ino.inodeNumber)
		}
		count := int(le.Uint32(listing[0:])) + 1
		startBlock := le.Uint32(listing[4:])
		baseInode := le.Uint32(listing[8:])
		listing = listing[squashfsDirHeaderSize:]
		for e := 0; e < count; e++ {
			if len(listing) < squashfsDirEntrySize {
				return errImage("truncated directory entry in inode %d", ino.inodeNumber)
			}
			off := le.Uint16(listing[0:])
			delta := int16(le.Uint16(listing[2:]))
			etype := le.Uint16(listing[4:])
			nameLen := int(le.Uint16(listing[6:])) + 1
			listing = listing[squashfsDirEntrySize:]
			if len(listing) < nameLen {
				return errImage("truncated entry name in inode %d", ino.inodeNumber)
			}
			name := string(listing[:nameLen])
			listing = listing[nameLen:]
			if !fsimage.EntryName(name) {
				return errImage("directory inode %d lists an entry named %q", ino.inodeNumber, name)
			}
			child, err := q.inodes.inodeAt(startBlock, off)
			if err != nil {
				return err
			}
			if want := uint32(int64(baseInode) + int64(delta)); child.inodeNumber != want {
				return errImage("entry %q resolves to inode %d, listing says %d", name, child.inodeNumber, want)
			}
			childPath := filepath.Join(path, name)
			switch etype {
			case squashfsTypeDir:
				if child.typ != squashfsTypeExtDir {
					return errImage("entry %q typed dir but inode is %d", name, child.typ)
				}
				if err := os.Mkdir(childPath, dirPerm); err != nil {
					return fmt.Errorf("imgfmt: extracting %q: %w", childPath, err)
				}
				if err := q.extractDir(child, uint64(startBlock)<<16|uint64(off), childPath, copyBuf); err != nil {
					return err
				}
			case squashfsTypeReg:
				if child.typ != squashfsTypeExtReg {
					return errImage("entry %q typed file but inode is %d", name, child.typ)
				}
				out, err := os.OpenFile(childPath, os.O_WRONLY|os.O_CREATE|os.O_EXCL, filePerm)
				if err != nil {
					return fmt.Errorf("imgfmt: extracting %q: %w", childPath, err)
				}
				n, err := io.CopyBuffer(out, io.NewSectionReader(q.r, child.dataStart, child.size), copyBuf)
				if cerr := out.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					return fmt.Errorf("imgfmt: extracting %q: %w", childPath, err)
				}
				if n != child.size {
					return errImage("file inode %d has %d of its %d bytes in the image", child.inodeNumber, n, child.size)
				}
			default:
				return errImage("entry %q has unsupported type %d", name, etype)
			}
		}
	}
	return nil
}

// ExtractSquashfs walks a squashfs image written by SquashfsSink and
// recreates its file tree under dest (which must already exist). It is the
// in-repo stand-in for `mount -o loop`: tests compare the extracted tree
// against a VFS-materialized run byte for byte. It rejects images the sink
// cannot have produced (compressed blocks, fragments, basic inodes, an entry
// name that would leave its directory, a directory listed twice) with
// fsimage.ErrManifestIntegrity; what fails to be created
// under dest is the *fs.PathError of the call that failed.
func ExtractSquashfs(r io.ReaderAt, dest string) error {
	q, err := openSquashfs(r)
	if err != nil {
		return err
	}
	root, err := q.inodes.inodeAt(uint32(q.super.rootInode>>16), uint16(q.super.rootInode))
	if err != nil {
		return err
	}
	if root.typ != squashfsTypeExtDir {
		return errImage("root inode has type %d, want directory", root.typ)
	}
	return q.extractDir(root, q.super.rootInode, dest, make([]byte, 64*1024))
}
