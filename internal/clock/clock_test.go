package clock

import (
	"sync"
	"testing"
	"time"
)

var epoch = time.Unix(1235526000, 0) // FAST '09

func TestNowFollowsTheWallClockByDefault(t *testing.T) {
	before := time.Now()
	got := Now()
	if after := time.Now(); got.Before(before) || got.After(after) {
		t.Errorf("Now() = %v, outside [%v, %v]", got, before, after)
	}
}

func TestFreezePinsNowAndSince(t *testing.T) {
	restore := Freeze(epoch)
	if got := Now(); !got.Equal(epoch) {
		t.Errorf("frozen Now() = %v, want %v", got, epoch)
	}
	if got := Since(epoch.Add(-90 * time.Second)); got != 90*time.Second {
		t.Errorf("frozen Since = %v, want 1m30s", got)
	}
	restore()
	if got := Now(); got.Equal(epoch) {
		t.Error("the clock is still frozen after restore")
	}
}

// TestSetNestsAndRestoresInOrder: each restore reinstates the source that
// was active when its Set ran, so nested overrides unwind like defers.
func TestSetNestsAndRestoresInOrder(t *testing.T) {
	restoreOuter := Freeze(epoch)
	ticks := 0
	restoreInner := Set(func() time.Time { ticks++; return epoch.Add(time.Duration(ticks) * time.Hour) })
	if a, b := Now(), Now(); !b.Equal(a.Add(time.Hour)) {
		t.Errorf("a stepping source read %v then %v", a, b)
	}
	restoreInner()
	if got := Now(); !got.Equal(epoch) {
		t.Errorf("after the inner restore Now() = %v, want the outer freeze %v", got, epoch)
	}
	restoreOuter()
	if Since(epoch) < 365*24*time.Hour {
		t.Error("after the outer restore the clock is not the wall clock")
	}
}

// TestFreezeIsSafeAgainstConcurrentReaders is for -race: generation timings
// are read from worker goroutines while a test freezes and restores.
func TestFreezeIsSafeAgainstConcurrentReaders(t *testing.T) {
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = Since(Now())
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		Freeze(epoch.Add(time.Duration(i) * time.Second))()
	}
	close(stop)
	wg.Wait()
}
