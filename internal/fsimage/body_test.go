package fsimage

import "testing"

// TestEdgeImageMatchesGeometry pins the engine's geometry to the copy in
// package imgfmt's body_test.go (bodyChunk and bodyRunFiles, in a package
// that cannot see these constants), so that retuning body.go cannot
// silently move that test's edgeImage files off the edges they are aimed
// at.
func TestEdgeImageMatchesGeometry(t *testing.T) {
	if bodyChunkSize != 128<<10 || bodyRunFiles != 256 {
		t.Fatalf("body.go geometry is now chunk %d, run files %d: update bodyChunk and bodyRunFiles in internal/imgfmt/body_test.go",
			bodyChunkSize, bodyRunFiles)
	}
}
