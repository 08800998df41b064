package main

import (
	"archive/tar"
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// roundTripScale sizes the once-per-invocation check: 10k files in the
// archive, 6k in the tree.
const roundTripScale = 0.02

// roundTrip checks, untimed, what the timed runs cannot see because their
// images go to /dev/null: that the tar reads back with archive/tar and holds
// the entries and bytes the report claims, that plan -> two segment workers
// -> stitch produces the same file byte for byte, and that the directory
// materializer leaves the requested tree on disk.
func (e *env) roundTrip() error {
	dir := filepath.Join(e.scratch, "roundtrip")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	s := small(500_000).scaled(roundTripScale)
	image, reportPath := filepath.Join(dir, "image.tar"), filepath.Join(dir, "report.json")
	if _, err := e.cli(s.command(e.seed, "", "-j", jobsFlag, "-format", "tar", "-out", image, "-report", reportPath)...); err != nil {
		return err
	}
	var r report
	if err := readJSON(reportPath, &r); err != nil {
		return err
	}
	entries, body, err := readTar(image)
	if err != nil {
		return err
	}
	if entries != s.files+s.dirs-1 || body != r.ActualBytes {
		return fmt.Errorf("round trip: the tar holds %d entries and %d body bytes; want %d (files + dirs - 1) and the report's %d",
			entries, body, s.files+s.dirs-1, r.ActualBytes)
	}
	c, err := e.shardChain(filepath.Join(dir, "segments"), s, 2, "tar")
	if err != nil {
		return err
	}
	stitched := filepath.Join(dir, "stitched.tar")
	if _, err := e.cli(append([]string{"stitch", "-plan", c.planPath, "-out", stitched}, c.outputs...)...); err != nil {
		return err
	}
	if same, err := sameBytes(image, stitched); err != nil || !same {
		return fmt.Errorf("round trip: the stitched archive is not the monolithic one byte for byte (%v)", err)
	}

	d := small(300_000).scaled(roundTripScale)
	tree := filepath.Join(dir, "tree")
	if _, err := e.cli(d.command(e.seed, "", "-j", jobsFlag, "-out", tree, "-report", reportPath)...); err != nil {
		return err
	}
	if err := readJSON(reportPath, &r); err != nil {
		return err
	}
	var files, dirs int
	var size int64
	err = filepath.WalkDir(tree, func(_ string, entry fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if entry.IsDir() {
			dirs++
			return nil
		}
		info, err := entry.Info()
		files++
		size += info.Size()
		return err
	})
	if err != nil {
		return err
	}
	if files != d.files || dirs != d.dirs || size != r.ActualBytes {
		return fmt.Errorf("round trip: the tree holds %d files, %d dirs, %d bytes; want %d, %d and the report's %d",
			files, dirs, size, d.files, d.dirs, r.ActualBytes)
	}
	return nil
}

// readTar reads the archive to its end and returns its entries and the bytes
// in regular files' bodies.
func readTar(path string) (entries int, body int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	for tr := tar.NewReader(f); ; entries++ {
		if _, err := tr.Next(); errors.Is(err, io.EOF) {
			return entries, body, nil
		} else if err != nil {
			return entries, body, err
		}
		n, err := io.Copy(io.Discard, tr)
		if err != nil {
			return entries, body, err
		}
		body += n
	}
}

// sameBytes reports whether two files hold the same bytes.
func sameBytes(a, b string) (bool, error) {
	var sums [2][]byte
	for i, path := range []string{a, b} {
		f, err := os.Open(path)
		if err != nil {
			return false, err
		}
		h := sha256.New()
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return false, err
		}
		sums[i] = h.Sum(nil)
	}
	return bytes.Equal(sums[0], sums[1]), nil
}
