package fsimage

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Spec records every parameter that went into generating an image, so that
// re-running Impressions with the same Spec reproduces the image exactly.
// This is the paper's reproducibility guarantee (§3.1): "Impressions ensures
// complete reproducibility of the image, by reporting the used distributions,
// parameter values, and seeds for random number generators."
type Spec struct {
	// Seed is the master random seed.
	Seed int64 `json:"seed"`
	// FSSizeBytes is the requested total file size (used space); 0 when no
	// size was requested.
	FSSizeBytes int64 `json:"fs_size_bytes"`
	// NumFiles is the requested (or derived) number of files.
	NumFiles int `json:"num_files"`
	// NumDirs is the requested (or derived) number of directories.
	NumDirs int `json:"num_dirs"`
	// TreeShape is "generative", "flat" or "deep".
	TreeShape string `json:"tree_shape"`
	// ContentKind names the content policy (default, text-1word, ...).
	ContentKind string `json:"content_kind"`
	// LayoutScore is the requested on-disk layout score.
	LayoutScore float64 `json:"layout_score"`
	// UseSpecialDirectories records whether special-directory bias was used.
	UseSpecialDirectories bool `json:"use_special_directories"`
	// Distributions maps parameter names (as in Table 2) to the model used,
	// e.g. "file size by count" -> "hybrid(lognormal(...),pareto(...))".
	Distributions map[string]string `json:"distributions"`
	// Constraints records user-specified constraints that were resolved.
	Constraints map[string]string `json:"constraints,omitempty"`
}

// Report is the reproducibility report produced alongside an image.
type Report struct {
	Spec Spec `json:"spec"`
	// GeneratedAt is when the image was generated.
	GeneratedAt time.Time `json:"generated_at"`
	// ActualFiles / ActualDirs / ActualBytes describe the generated image.
	ActualFiles int   `json:"actual_files"`
	ActualDirs  int   `json:"actual_dirs"`
	ActualBytes int64 `json:"actual_bytes"`
	// SumError is the relative error between requested and achieved total
	// size; absent when no size was requested.
	SumError float64 `json:"sum_error,omitempty"`
	// AchievedLayoutScore is the measured layout score of the simulated disk.
	AchievedLayoutScore float64 `json:"achieved_layout_score"`
	// Oversamples reports the constraint-resolution oversampling count.
	Oversamples int `json:"oversamples"`
	// PhaseTimes records wall-clock seconds per generation phase (Table 6).
	PhaseTimes map[string]float64 `json:"phase_times,omitempty"`
}

// WriteTo renders the report as human-readable text, the format the
// command-line tool prints so results can be attached to publications.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Impressions image report\n")
	fmt.Fprintf(&b, "  generated at:        %s\n", r.GeneratedAt.Format(time.RFC3339))
	fmt.Fprintf(&b, "  seed:                %d\n", r.Spec.Seed)
	requested, sumError := "none", ""
	if r.Spec.FSSizeBytes > 0 {
		requested = fmt.Sprintf("%d bytes", r.Spec.FSSizeBytes)
		sumError = fmt.Sprintf(" (error %.2f%%)", r.SumError*100)
	}
	fmt.Fprintf(&b, "  requested size:      %s\n", requested)
	fmt.Fprintf(&b, "  files / dirs:        %d / %d\n", r.ActualFiles, r.ActualDirs)
	fmt.Fprintf(&b, "  total bytes:         %d%s\n", r.ActualBytes, sumError)
	fmt.Fprintf(&b, "  tree shape:          %s\n", r.Spec.TreeShape)
	fmt.Fprintf(&b, "  content:             %s\n", r.Spec.ContentKind)
	fmt.Fprintf(&b, "  layout score:        requested %.3f, achieved %.3f\n",
		r.Spec.LayoutScore, r.AchievedLayoutScore)
	fmt.Fprintf(&b, "  oversamples:         %d\n", r.Oversamples)
	fmt.Fprintf(&b, "  distributions:\n")
	for _, k := range sortedKeys(r.Spec.Distributions) {
		fmt.Fprintf(&b, "    %-32s %s\n", k+":", r.Spec.Distributions[k])
	}
	if len(r.Spec.Constraints) > 0 {
		fmt.Fprintf(&b, "  constraints:\n")
		for _, k := range sortedKeys(r.Spec.Constraints) {
			fmt.Fprintf(&b, "    %-32s %s\n", k+":", r.Spec.Constraints[k])
		}
	}
	if len(r.PhaseTimes) > 0 {
		fmt.Fprintf(&b, "  phase times (seconds):\n")
		for _, k := range sortedKeys(r.PhaseTimes) {
			fmt.Fprintf(&b, "    %-32s %.3f\n", k+":", r.PhaseTimes[k])
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// MarshalJSON ensures reports serialize with stable formatting.
func (r *Report) MarshalJSON() ([]byte, error) {
	type alias Report
	return json.MarshalIndent((*alias)(r), "", "  ")
}
