package serve

import (
	"archive/tar"
	"context"
	"errors"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"impressions/internal/fleet"
)

// TestRunImageTar: a completed run's image endpoint streams a well-formed
// tar whose trailer digest equals both the run's merged digest and the
// single-process canonical digest.
func TestRunImageTar(t *testing.T) {
	fo := fleetTestOptions()
	// No workers join: the daemon's inline executor completes the shards.
	fo.InlineGrace = time.Millisecond
	_, c := newFleetServer(t, fo)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	spec := testSpec(9001)
	st, err := c.PostRun(ctx, PlanRequest{Spec: spec, Shards: 3})
	if err != nil {
		t.Fatalf("PostRun: %v", err)
	}
	st, err = c.WaitRun(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitRun: %v", err)
	}
	if st.State != fleet.RunComplete {
		t.Fatalf("run state %s, want complete (%s)", st.State, st.Error)
	}

	resp, err := c.HTTP.Get(c.Base + "/v1/runs/" + st.ID + "/image.tar")
	if err != nil {
		t.Fatalf("GET image.tar: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET image.tar: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-tar" {
		t.Errorf("Content-Type %q, want application/x-tar", ct)
	}
	entries := 0
	tr := tar.NewReader(resp.Body)
	for {
		_, err := tr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("tar.Next after %d entries: %v", entries, err)
		}
		if _, err := io.Copy(io.Discard, tr); err != nil {
			t.Fatalf("reading entry %d: %v", entries, err)
		}
		entries++
	}
	// Drain past the archive trailer so the HTTP trailer becomes visible.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatalf("draining body: %v", err)
	}
	if entries == 0 {
		t.Fatal("image.tar carried no entries")
	}
	digest := resp.Trailer.Get(HeaderImageDigest)
	if digest == "" {
		t.Fatal("no image digest trailer")
	}
	if digest != st.Digest {
		t.Errorf("trailer digest %s, run digest %s", digest, st.Digest)
	}
	if ref := fleetReferenceDigest(t, spec); digest != ref {
		t.Errorf("trailer digest %s, single-process reference %s", digest, ref)
	}
}

// TestRunImageTarNotComplete: asking for the image of a still-running run
// is a 409, not a truncated archive.
func TestRunImageTarNotComplete(t *testing.T) {
	// Inline fallback disabled and no workers: the run stays running.
	_, c := newFleetServer(t, fleetTestOptions())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	st, err := c.PostRun(ctx, PlanRequest{Spec: testSpec(9002), Shards: 2})
	if err != nil {
		t.Fatalf("PostRun: %v", err)
	}
	resp, err := c.HTTP.Get(c.Base + "/v1/runs/" + st.ID + "/image.tar")
	if err != nil {
		t.Fatalf("GET image.tar: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("running run image: status %d, want %d", resp.StatusCode, http.StatusConflict)
	}
}

// TestRunImageTarAbandonedMidStream: a client that walks away from
// image.tar mid-archive must not leave the daemon with the stream's
// goroutines — the handler, and the content workers the tar sink runs
// behind it — for the rest of its life.
func TestRunImageTarAbandonedMidStream(t *testing.T) {
	fo := fleetTestOptions()
	fo.InlineGrace = time.Millisecond
	_, c := newFleetServer(t, fo)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Far more than loopback socket buffers hold, so the handler is still
	// generating when the client stops reading.
	spec := testSpec(9003)
	spec.FSSizeBytes = 48 << 20
	st, err := c.PostRun(ctx, PlanRequest{Spec: spec, Shards: 2})
	if err != nil {
		t.Fatalf("PostRun: %v", err)
	}
	if st, err = c.WaitRun(ctx, st.ID, 5*time.Millisecond); err != nil || st.State != fleet.RunComplete {
		t.Fatalf("WaitRun: state %s, error %v (%s)", st.State, err, st.Error)
	}
	// With the keep-alive connections closed, what is left is the daemon at
	// rest: no connection goroutines on either side.
	c.HTTP.CloseIdleConnections()
	baseline := settledGoroutines()

	resp, err := c.HTTP.Get(c.Base + "/v1/runs/" + st.ID + "/image.tar")
	if err != nil {
		t.Fatalf("GET image.tar: %v", err)
	}
	if _, err := io.CopyN(io.Discard, resp.Body, 64<<10); err != nil {
		t.Fatalf("reading the head of image.tar: %v", err)
	}
	if n := runtime.NumGoroutine(); n <= baseline {
		t.Fatalf("%d goroutines mid-stream, %d at rest: nothing is streaming", n, baseline)
	}
	resp.Body.Close()

	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the abandoned download, %d at rest:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
	}
}

// settledGoroutines reads the goroutine count once it has stopped moving
// (connection goroutines take a moment to unwind after a close).
func settledGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for same < 10 {
		time.Sleep(5 * time.Millisecond)
		if now := runtime.NumGoroutine(); now == n {
			same++
		} else {
			n, same = now, 0
		}
	}
	return n
}
