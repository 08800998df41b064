package imgfmt

import (
	"testing"

	"impressions/internal/fsimage"
)

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
