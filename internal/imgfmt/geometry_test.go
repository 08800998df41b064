package imgfmt

import (
	"testing"

	"impressions/internal/fsimage"
)

// TestEdgeImageMatchesGeometry pins the engine's geometry to the copy in
// body_test.go (package imgfmt_test, which cannot see these constants), so
// that retuning body.go cannot silently move edgeImage's files off the
// edges they are aimed at.
func TestEdgeImageMatchesGeometry(t *testing.T) {
	if bodyChunkSize != 128<<10 || bodyWorkerBudget != 512<<10 || bodyRunFiles != 256 {
		t.Fatalf("body.go geometry is now chunk %d, budget %d, run files %d: update bodyChunk, bodyBudget and bodyRunFiles in body_test.go",
			bodyChunkSize, bodyWorkerBudget, bodyRunFiles)
	}
}

// TestSquashfsNamePrefix: the one renderer of a file's ID part, which
// AddFile checks every name against and appendFileName rebuilds listings
// from, writes the generator's "file%08d" after what dst holds, past eight
// digits too.
func TestSquashfsNamePrefix(t *testing.T) {
	var s SquashfsSink
	for _, id := range []int{0, 7, 1234567, 12345678, 123456789, 1<<31 - 1} {
		if got, want := string(s.appendNamePrefix([]byte("dir/"), id)), "dir/"+fsimage.MakeFileName(id, ""); got != want {
			t.Errorf("file %d: rendered %q, want %q", id, got, want)
		}
	}
}
