//go:build unix

package fsimage

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// TestHashTreeRefusesFIFO: a FIFO in the tree is refused before anything
// opens it; an open would wait for a writer that never comes.
func TestHashTreeRefusesFIFO(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the FIFO case is checked on Linux")
	}
	root := t.TempDir()
	fifo := filepath.Join(root, "fifo")
	if err := syscall.Mkfifo(fifo, 0o644); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := HashTree(root)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrManifestIntegrity) {
			t.Errorf("got %v, want ErrManifestIntegrity", err)
		}
	case <-time.After(10 * time.Second):
		// Release the walker from its open before failing.
		if w, err := os.OpenFile(fifo, os.O_WRONLY|syscall.O_NONBLOCK, 0); err == nil {
			w.Close()
		}
		<-done
		t.Fatal("HashTree waited on a FIFO")
	}
}
