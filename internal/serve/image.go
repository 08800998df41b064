package serve

// The image endpoint: GET /v1/runs/{id}/image.tar streams a completed
// run's image as one monolithic tar, regenerated from the stored plan by
// the direct tar sink — no VFS, no worker round-trips, O(chunk) memory.
// The canonical image digest travels as an HTTP trailer (the body must
// stream before the digest is known), so clients can verify the archive
// against the run's merged digest without buffering it.

import (
	"errors"
	"fmt"
	"net/http"

	"impressions/internal/distribute"
	"impressions/internal/fleet"
	"impressions/internal/imgfmt"
)

// ErrRunNotComplete marks an image request against a run that has not
// converged yet; writeError maps it to 409 so pollers retry rather than
// treat it as a lost run.
var ErrRunNotComplete = errors.New("serve: run is not complete")

// handleGetRunImage serializes a completed run's image as a tar stream.
// Regeneration is deterministic, so the archive a client downloads is
// byte-identical to what any worker fleet would have stitched for the
// same plan.
func (s *Server) handleGetRunImage(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.requestContext(r)
	defer cancel()
	st, err := s.fleet.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	if st.State != fleet.RunComplete {
		writeError(w, fmt.Errorf("%w: run %s is %s", ErrRunNotComplete, st.ID, st.State))
		return
	}
	err = s.withStored(ctx, st.Fingerprint, func(entry PlanEntry) error {
		w.Header().Set("Content-Type", "application/x-tar")
		w.Header().Set(HeaderFingerprint, st.Fingerprint)
		// Announce the trailer before the first body byte; its value is set
		// once the stream has been fully generated and digested.
		w.Header().Set("Trailer", HeaderImageDigest)
		// Parallelism stays at its default, one content worker per CPU behind
		// the stream's single writer (512 KiB each): the slot held here
		// already bounds how many of these run at once. The workers end with
		// ctx, so a client that goes away mid-archive leaves none behind.
		// Once headers are out, aborting mid-archive is the only honest
		// signal of a failure left (the client's tar reader fails on the
		// truncation).
		if _, digest, err := distribute.WritePlanTar(entrySource(ctx, entry), w, imgfmt.Options{Context: ctx}, s.registry); err == nil {
			w.Header().Set(HeaderImageDigest, digest)
			s.imagesServed.Add(1)
		}
		return nil
	})
	if err != nil {
		writeError(w, err)
	}
}
