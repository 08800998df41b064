package distribute

import (
	"errors"
	"testing"

	"impressions/internal/fsimage"
)

// TestShardViewOutOfRangeIsInvalidSpec pins the typed-sentinel contract for
// a caller-fixable input: asking a plan for a shard it does not have must
// be dispatchable with errors.Is (the serving layer maps ErrInvalidSpec to
// HTTP 400), not by matching message text.
func TestShardViewOutOfRangeIsInvalidSpec(t *testing.T) {
	open := planRoundTrip(t, testConfig(), 2)
	for _, shard := range []int{-1, 2, 99} {
		_, err := open.ShardView(shard)
		if err == nil {
			t.Fatalf("ShardView(%d) succeeded on a 2-shard plan", shard)
		}
		if !errors.Is(err, fsimage.ErrInvalidSpec) {
			t.Errorf("ShardView(%d) = %v; want errors.Is(err, fsimage.ErrInvalidSpec)", shard, err)
		}
		if errors.Is(err, fsimage.ErrManifestIntegrity) {
			t.Errorf("ShardView(%d) = %v; a bad request must not read as an integrity failure", shard, err)
		}
	}
}

// TestVerifyManifestTamperIsManifestIntegrity pins the sentinel on the
// merge gate: a manifest whose counts contradict the plan must surface
// ErrManifestIntegrity (HTTP 500, never retried as a client error).
func TestVerifyManifestTamperIsManifestIntegrity(t *testing.T) {
	open := planRoundTrip(t, testConfig(), 2)
	view, err := open.ShardView(0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := executeView(view, DirTarget(t.TempDir()), WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyManifest(open, m); err != nil {
		t.Fatalf("pristine manifest failed verification: %v", err)
	}
	m.Files++
	err = VerifyManifest(open, m)
	if err == nil {
		t.Fatal("tampered manifest passed verification")
	}
	if !errors.Is(err, fsimage.ErrManifestIntegrity) {
		t.Errorf("tampered manifest surfaced %v; want errors.Is(err, fsimage.ErrManifestIntegrity)", err)
	}
}
