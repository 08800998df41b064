// Command fsstat scans an existing directory tree and
// reports its file-system distributions in the same terms Impressions uses:
// file and directory counts, total size, files by size, bytes by size, files
// and directories by namespace depth, directory sizes, and the top
// extensions. Its output is the measurement side of the Impressions loop: the
// curves it prints can be compared against generated images or used to pick
// user-specified parameters.
//
// Usage:
//
//	fsstat /path/to/tree
//	fsstat -json /path/to/tree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"impressions/internal/fsimage"
	"impressions/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fsstat:", err)
		os.Exit(1)
	}
}

type jsonReport struct {
	Files        int                `json:"files"`
	Dirs         int                `json:"dirs"`
	TotalBytes   int64              `json:"total_bytes"`
	MeanFileSize float64            `json:"mean_file_size"`
	MaxFileDepth int                `json:"max_file_depth"`
	Irregular    int                `json:"irregular_entries_skipped"`
	FilesBySize  map[string]float64 `json:"files_by_size"`
	BytesBySize  map[string]float64 `json:"bytes_by_size"`
	FilesByDepth []float64          `json:"files_by_depth"`
	DirsByDepth  []float64          `json:"dirs_by_depth"`
	Extensions   map[string]float64 `json:"top_extensions_by_count"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("fsstat", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON instead of text")
	topN := fs.Int("top", 20, "number of extensions to report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: fsstat [-json] [-top N] <directory>")
	}
	root := fs.Arg(0)
	res, err := fsimage.ScanTree(root)
	if err != nil {
		return err
	}
	if *jsonOut {
		return writeJSON(os.Stdout, res, *topN)
	}
	writeText(os.Stdout, res, *topN)
	return nil
}

func writeJSON(w *os.File, res *fsimage.ScanResult, topN int) error {
	img := res.Image
	st := img.Stats(fsimage.StatsConfig{})
	rep := jsonReport{
		Files:        img.FileCount(),
		Dirs:         img.DirCount(),
		TotalBytes:   img.TotalBytes(),
		MeanFileSize: img.MeanFileSize(),
		MaxFileDepth: img.MaxFileDepth(),
		Irregular:    res.Irregular,
		FilesBySize:  map[string]float64{},
		BytesBySize:  map[string]float64{},
		Extensions:   map[string]float64{},
	}
	sizeHist := st.FilesBySize()
	for i, f := range sizeHist.Normalize() {
		if f > 0 {
			rep.FilesBySize[sizeHist.BinLabel(i)] = f
		}
	}
	byteHist := st.BytesBySize()
	for i, f := range byteHist.Normalize() {
		if f > 0 {
			rep.BytesBySize[byteHist.BinLabel(i)] = f
		}
	}
	rep.FilesByDepth = st.FilesByDepth().Normalize()
	rep.DirsByDepth = st.DirsByDepth().Normalize()
	for _, share := range st.TopExtensions(topN) {
		rep.Extensions[share.Ext] = share.FileFrac
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&rep)
}

func writeText(w *os.File, res *fsimage.ScanResult, topN int) {
	img := res.Image
	// One streaming pass feeds every distribution printed below.
	st := img.Stats(fsimage.StatsConfig{})
	fmt.Fprintln(w, img.Summary())
	fmt.Fprintf(w, "mean file size: %s\n", stats.FormatBytes(img.MeanFileSize()))
	if res.Irregular > 0 {
		fmt.Fprintf(w, "skipped %d irregular entries (symlinks, devices, FIFOs) — not counted as files\n", res.Irregular)
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "\nfiles by size (power-of-two bins):")
	sizeHist := st.FilesBySize()
	for i, f := range sizeHist.Normalize() {
		if f > 0.0005 {
			fmt.Fprintf(tw, "  %s\t%.2f%%\n", sizeHist.BinLabel(i), f*100)
		}
	}
	tw.Flush()

	fmt.Fprintln(w, "\nbytes by containing file size:")
	byteHist := st.BytesBySize()
	for i, f := range byteHist.Normalize() {
		if f > 0.0005 {
			fmt.Fprintf(tw, "  %s\t%.2f%%\n", byteHist.BinLabel(i), f*100)
		}
	}
	tw.Flush()

	fmt.Fprintln(w, "\nfiles by namespace depth:")
	for depth, f := range st.FilesByDepth().Normalize() {
		if f > 0.0005 {
			fmt.Fprintf(tw, "  depth %d\t%.2f%%\n", depth, f*100)
		}
	}
	tw.Flush()

	fmt.Fprintln(w, "\ndirectories by namespace depth:")
	for depth, f := range st.DirsByDepth().Normalize() {
		if f > 0.0005 {
			fmt.Fprintf(tw, "  depth %d\t%.2f%%\n", depth, f*100)
		}
	}
	tw.Flush()

	fmt.Fprintf(w, "\ntop %d extensions by count:\n", topN)
	for _, share := range st.TopExtensions(topN) {
		fmt.Fprintf(tw, "  %s\t%.2f%% of files\t%.2f%% of bytes\n", share.Ext, share.FileFrac*100, share.BytesFrac*100)
	}
	tw.Flush()
}
