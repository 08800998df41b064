package fsimage

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// newInOrder is the adapter destination() builds for a writer that cannot
// seek, holding up to hold bytes.
func newInOrder(w *bytes.Buffer, hold int) (*inOrder, chan struct{}) {
	quit := make(chan struct{})
	return destination(w, quit, hold).(*inOrder), quit
}

// TestInOrderHoldsLaterWrites: a write ahead of the next byte due returns at
// once, its bytes copied, while the held bytes fit the budget; past it, the
// write waits for its turn; the write at the next byte writes every held
// write it makes due, in offset order.
func TestInOrderHoldsLaterWrites(t *testing.T) {
	var out bytes.Buffer
	o, _ := newInOrder(&out, 8)
	c := []byte("cccc")
	for _, w := range []struct {
		p   []byte
		off int64
	}{{c, 8}, {[]byte("bbbb"), 4}} {
		if n, err := o.WriteAt(w.p, w.off); n != len(w.p) || err != nil {
			t.Fatalf("held write at %d: %d, %v", w.off, n, err)
		}
	}
	copy(c, "xxxx") // the caller may reuse its chunk once the write returns
	waited := make(chan error, 1)
	go func() {
		_, err := o.WriteAt([]byte("dddd"), 12) // past the budget: waits
		waited <- err
	}()
	select {
	case err := <-waited:
		t.Fatalf("a write past the budget returned (%v) before its turn", err)
	case <-time.After(20 * time.Millisecond):
	}
	if out.Len() != 0 {
		t.Fatalf("%q written before the first byte was due", out.String())
	}
	if n, err := o.WriteAt([]byte("aaaa"), 0); n != 4 || err != nil {
		t.Fatalf("write at 0: %d, %v", n, err)
	}
	if err := <-waited; err != nil {
		t.Fatalf("the waiting write: %v", err)
	}
	if got := out.String(); got != "aaaabbbbccccdddd" {
		t.Errorf("wrote %q, want aaaabbbbccccdddd", got)
	}
	if o.size != 0 || len(o.held) != 0 {
		t.Errorf("%d bytes in %d writes still held", o.size, len(o.held))
	}
}

// TestInOrderQuitReleasesWaiters: a write waiting for its turn returns once
// the engine stops, and writes nothing.
func TestInOrderQuitReleasesWaiters(t *testing.T) {
	var out bytes.Buffer
	o, quit := newInOrder(&out, 0)
	waited := make(chan error, 1)
	go func() {
		_, err := o.WriteAt([]byte("late"), 4)
		waited <- err
	}()
	close(quit)
	if err := <-waited; !errors.Is(err, context.Canceled) {
		t.Errorf("the waiting write returned %v, want context.Canceled", err)
	}
	if out.Len() != 0 {
		t.Errorf("%q written after the engine stopped", out.String())
	}
}
