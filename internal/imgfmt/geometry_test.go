package imgfmt

import "testing"

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
