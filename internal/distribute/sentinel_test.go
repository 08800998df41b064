package distribute

import (
	"errors"
	"testing"

	"impressions/internal/fsimage"
)

// TestManifestCheckTamperIsManifestIntegrity pins the sentinel on the
// commit gate: a manifest whose counts contradict the plan must surface
// ErrManifestIntegrity (HTTP 500, never retried as a client error).
func TestManifestCheckTamperIsManifestIntegrity(t *testing.T) {
	p := planRoundTrip(t, testConfig(), 2)
	check, err := NewManifestCheck(p.source())
	if err != nil {
		t.Fatal(err)
	}
	m, err := executeShard(p, 0, t.TempDir(), WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Verify(m); err != nil {
		t.Fatalf("pristine manifest failed verification: %v", err)
	}
	m.Files++
	err = check.Verify(m)
	if err == nil {
		t.Fatal("tampered manifest passed verification")
	}
	if !errors.Is(err, fsimage.ErrManifestIntegrity) {
		t.Errorf("tampered manifest surfaced %v; want errors.Is(err, fsimage.ErrManifestIntegrity)", err)
	}
}
