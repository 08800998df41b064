package distribute

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"impressions/internal/fsimage"
)

// incrementalOpts returns the standard test options: a small batch size so
// even test shards span several sealed batches.
func incrementalOpts(journal string) WorkerOptions {
	return WorkerOptions{JournalPath: journal, BatchFiles: 8}
}

// crashShard runs one shard with an injected crash and returns its view and
// journal path (journal intact, shard partially written).
func crashShard(t *testing.T, open *OpenPlan, shard int, outRoot, journal string, failAfter int) *ShardView {
	t.Helper()
	view, err := open.ShardView(shard)
	if err != nil {
		t.Fatalf("ShardView: %v", err)
	}
	opts := incrementalOpts(journal)
	opts.FailAfterFiles = failAfter
	if _, err := Execute(context.Background(), view, DirTarget(outRoot), opts); !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("injected crash: got %v, want ErrSimulatedCrash", err)
	}
	return view
}

// TestIncrementalResume: a worker crashing mid-shard resumes from the last
// sealed batch — skipping the proven prefix — and still produces the exact
// manifest a clean run seals.
func TestIncrementalResume(t *testing.T) {
	open := planRoundTrip(t, testConfig(), 2)
	outRoot := t.TempDir()
	journal := filepath.Join(t.TempDir(), "journal")
	view := crashShard(t, open, 0, outRoot, journal, 20)

	res, err := Execute(context.Background(), view, DirTarget(outRoot), incrementalOpts(journal))
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if res.ResumedFiles == 0 {
		t.Fatal("resumed run replayed the whole shard; want a non-empty journal prefix skipped")
	}
	if res.ResumedFiles+res.WrittenFiles != len(view.Files) {
		t.Fatalf("resumed %d + wrote %d != shard's %d files", res.ResumedFiles, res.WrittenFiles, len(view.Files))
	}
	ref, err := executeShard(open, 0, t.TempDir(), WorkerOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("executeShard: %v", err)
	}
	if res.Manifest.ManifestSHA256 != ref.ManifestSHA256 {
		t.Fatal("resumed manifest differs from a clean run's")
	}
}

// TestIncrementalResumeAfterRepeatedCrashes: every attempt crashes a little
// further in; progress is monotone and the final manifest is still exact.
func TestIncrementalResumeAfterRepeatedCrashes(t *testing.T) {
	open := planRoundTrip(t, testConfig(), 2)
	outRoot := t.TempDir()
	journal := filepath.Join(t.TempDir(), "journal")
	view, err := open.ShardView(1)
	if err != nil {
		t.Fatalf("ShardView: %v", err)
	}
	attempts := 0
	for {
		attempts++
		opts := incrementalOpts(journal)
		opts.FailAfterFiles = 16
		res, err := Execute(context.Background(), view, DirTarget(outRoot), opts)
		if errors.Is(err, ErrSimulatedCrash) {
			continue
		}
		if err != nil {
			t.Fatalf("attempt %d: %v", attempts, err)
		}
		ref, err := executeShard(open, 1, t.TempDir(), WorkerOptions{Parallelism: 1})
		if err != nil {
			t.Fatalf("executeShard: %v", err)
		}
		if res.Manifest.ManifestSHA256 != ref.ManifestSHA256 {
			t.Fatal("manifest after repeated crashes differs from a clean run's")
		}
		break
	}
	if attempts < 2 {
		t.Fatalf("crash loop converged in %d attempt(s); the shard is too small to exercise resume", attempts)
	}
}

// TestIncrementalJournalTampered: a journal whose seal chain does not verify
// is discarded wholesale — the shard restarts and still lands on the exact
// manifest.
func TestIncrementalJournalTampered(t *testing.T) {
	open := planRoundTrip(t, testConfig(), 2)
	outRoot := t.TempDir()
	journal := filepath.Join(t.TempDir(), "journal")
	view := crashShard(t, open, 0, outRoot, journal, 20)

	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatalf("reading journal: %v", err)
	}
	tampered := strings.Replace(string(raw), `"digests":["`, `"digests":["0000`, 1)
	if tampered == string(raw) {
		t.Fatal("tamper pattern did not match the journal")
	}
	if err := os.WriteFile(journal, []byte(tampered), 0o644); err != nil {
		t.Fatalf("writing tampered journal: %v", err)
	}

	res, err := Execute(context.Background(), view, DirTarget(outRoot), incrementalOpts(journal))
	if err != nil {
		t.Fatalf("run over tampered journal: %v", err)
	}
	if res.ResumedFiles != 0 {
		t.Fatalf("tampered journal was trusted for %d files; want a full restart", res.ResumedFiles)
	}
	ref, err := executeShard(open, 0, t.TempDir(), WorkerOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("executeShard: %v", err)
	}
	if res.Manifest.ManifestSHA256 != ref.ManifestSHA256 {
		t.Fatal("manifest after tampered-journal restart differs from a clean run's")
	}
}

// TestIncrementalTornTail: a torn final line — the signature of a crash
// mid-append — costs only the unsealed batch, not the whole journal.
func TestIncrementalTornTail(t *testing.T) {
	open := planRoundTrip(t, testConfig(), 2)
	outRoot := t.TempDir()
	journal := filepath.Join(t.TempDir(), "journal")
	view := crashShard(t, open, 0, outRoot, journal, 20)

	f, err := os.OpenFile(journal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("opening journal: %v", err)
	}
	if _, err := f.WriteString(`{"format_version":1,"plan_fingerprint":"torn`); err != nil {
		t.Fatalf("appending torn line: %v", err)
	}
	f.Close()

	res, err := Execute(context.Background(), view, DirTarget(outRoot), incrementalOpts(journal))
	if err != nil {
		t.Fatalf("run over torn journal: %v", err)
	}
	if res.ResumedFiles == 0 {
		t.Fatal("torn tail discarded the sealed prefix; want a resume")
	}
	ref, err := executeShard(open, 0, t.TempDir(), WorkerOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("executeShard: %v", err)
	}
	if res.Manifest.ManifestSHA256 != ref.ManifestSHA256 {
		t.Fatal("manifest after torn-tail resume differs from a clean run's")
	}
}

// TestIncrementalMissingResumedFile: the journal's word is checked against
// the disk — a resumed file that vanished (or changed size) invalidates the
// journal and restarts the shard.
func TestIncrementalMissingResumedFile(t *testing.T) {
	open := planRoundTrip(t, testConfig(), 2)
	outRoot := t.TempDir()
	journal := filepath.Join(t.TempDir(), "journal")
	view := crashShard(t, open, 0, outRoot, journal, 20)

	// Delete one file the journal claims is done.
	victim := filepath.Join(outRoot, view.Tree.Path(view.Files[0].DirID), view.Files[0].Name)
	if err := os.Remove(victim); err != nil {
		t.Fatalf("removing %s: %v", victim, err)
	}

	res, err := Execute(context.Background(), view, DirTarget(outRoot), incrementalOpts(journal))
	if err != nil {
		t.Fatalf("run over stale journal: %v", err)
	}
	if res.ResumedFiles != 0 {
		t.Fatalf("journal trusted %d files despite a missing one; want a full restart", res.ResumedFiles)
	}
	ref, err := executeShard(open, 0, t.TempDir(), WorkerOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("executeShard: %v", err)
	}
	if res.Manifest.ManifestSHA256 != ref.ManifestSHA256 {
		t.Fatal("manifest after stale-journal restart differs from a clean run's")
	}
}

// TestJournalFromOtherContentMode: a journal sealed by a metadata-only run
// proves sized, empty files, which is all the stat pass looks at; resumed by
// a full-content run (or the other way round) it must be discarded and the
// shard rewritten, or the manifest claims content the disk does not hold.
func TestJournalFromOtherContentMode(t *testing.T) {
	open := planRoundTrip(t, testConfig(), 2)
	view, err := open.ShardView(0)
	if err != nil {
		t.Fatalf("ShardView: %v", err)
	}
	for _, c := range []struct {
		name                string
		firstMeta, thenMeta bool
	}{
		{"metadata-only then full content", true, false},
		{"full content then metadata-only", false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			outRoot := t.TempDir()
			journal := filepath.Join(t.TempDir(), "journal")
			first := incrementalOpts(journal)
			first.MetadataOnly = c.firstMeta
			if _, err := Execute(context.Background(), view, DirTarget(outRoot), first); err != nil {
				t.Fatalf("first run: %v", err)
			}
			then := incrementalOpts(journal)
			then.MetadataOnly = c.thenMeta
			res, err := Execute(context.Background(), view, DirTarget(outRoot), then)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if res.ResumedFiles != 0 || res.WrittenFiles != len(view.Files) {
				t.Fatalf("resumed %d and wrote %d of %d files over the other mode's journal; want a full restart",
					res.ResumedFiles, res.WrittenFiles, len(view.Files))
			}
			if err := VerifyManifest(open, res.Manifest); err != nil {
				t.Fatalf("manifest: %v", err)
			}
			cleanRoot := t.TempDir()
			clean, err := executeShard(open, 0, cleanRoot, WorkerOptions{MetadataOnly: c.thenMeta})
			if err != nil {
				t.Fatalf("executeShard: %v", err)
			}
			if res.Manifest.ManifestSHA256 != clean.ManifestSHA256 {
				t.Error("manifest differs from a clean run's in the second mode")
			}
			got, err := fsimage.HashTree(outRoot)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fsimage.HashTree(cleanRoot)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Error("the tree still holds the first mode's file contents")
			}
		})
	}
}
