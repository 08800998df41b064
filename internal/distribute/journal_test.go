package distribute

import (
	"context"
	"errors"
	"fmt"
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
func crashShard(t *testing.T, p *testPlan, shard int, outRoot, journal string, failAfter int) *ShardView {
	t.Helper()
	view := p.view(t, shard)
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
	p := planRoundTrip(t, testConfig(), 2)
	outRoot := t.TempDir()
	journal := filepath.Join(t.TempDir(), "journal")
	view := crashShard(t, p, 0, outRoot, journal, 20)

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
	ref, err := executeShard(p, 0, t.TempDir(), WorkerOptions{Parallelism: 1})
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
	p := planRoundTrip(t, testConfig(), 2)
	outRoot := t.TempDir()
	journal := filepath.Join(t.TempDir(), "journal")
	view := p.view(t, 1)
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
		ref, err := executeShard(p, 1, t.TempDir(), WorkerOptions{Parallelism: 1})
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
	p := planRoundTrip(t, testConfig(), 2)
	outRoot := t.TempDir()
	journal := filepath.Join(t.TempDir(), "journal")
	view := crashShard(t, p, 0, outRoot, journal, 20)

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
	ref, err := executeShard(p, 0, t.TempDir(), WorkerOptions{Parallelism: 1})
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
	p := planRoundTrip(t, testConfig(), 2)
	outRoot := t.TempDir()
	journal := filepath.Join(t.TempDir(), "journal")
	view := crashShard(t, p, 0, outRoot, journal, 20)

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
	ref, err := executeShard(p, 0, t.TempDir(), WorkerOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("executeShard: %v", err)
	}
	if res.Manifest.ManifestSHA256 != ref.ManifestSHA256 {
		t.Fatal("manifest after torn-tail resume differs from a clean run's")
	}
}

// TestTornTailCutBeforeAppend: the batches an execution seals after a torn
// tail still count — the tail is cut before they are appended, not left to
// glue the first of them onto half a line that hides all of them.
func TestTornTailCutBeforeAppend(t *testing.T) {
	pristine := goldenShard(t)
	for _, j := range []int{1, 4} {
		t.Run(fmt.Sprintf("j=%d", j), func(t *testing.T) {
			outRoot, journal := t.TempDir(), filepath.Join(t.TempDir(), "journal")
			crash := WorkerOptions{Parallelism: j, JournalPath: journal, BatchFiles: 8, FailAfterFiles: 16}
			if _, err := Execute(context.Background(), pristine, DirTarget(outRoot), crash); !errors.Is(err, ErrSimulatedCrash) {
				t.Fatalf("first crash: got %v, want ErrSimulatedCrash", err)
			}
			f, err := os.OpenFile(journal, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatalf("opening journal: %v", err)
			}
			if _, err := f.WriteString(`{"format_version":1,"plan_finger`); err != nil {
				t.Fatalf("appending torn line: %v", err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := Execute(context.Background(), pristine, DirTarget(outRoot), crash); !errors.Is(err, ErrSimulatedCrash) {
				t.Fatalf("second crash: got %v, want ErrSimulatedCrash", err)
			}
			res, err := Execute(context.Background(), pristine, DirTarget(outRoot), WorkerOptions{Parallelism: j, JournalPath: journal, BatchFiles: 8})
			if err != nil {
				t.Fatalf("resumed execution: %v", err)
			}
			if res.ResumedFiles != 32 || res.Manifest.ManifestSHA256 != goldenManifests[1] {
				t.Errorf("resumed %d files to manifest %s, want the 32 sealed and %s", res.ResumedFiles, res.Manifest.ManifestSHA256, goldenManifests[1])
			}
		})
	}
}

// TestIncrementalMissingResumedFile: the journal's word is checked against
// the disk — a resumed file that vanished (or changed size) invalidates the
// journal and restarts the shard.
func TestIncrementalMissingResumedFile(t *testing.T) {
	p := planRoundTrip(t, testConfig(), 2)
	outRoot := t.TempDir()
	journal := filepath.Join(t.TempDir(), "journal")
	view := crashShard(t, p, 0, outRoot, journal, 20)

	// Delete one file the journal claims is done: the first it sealed.
	first := view.Files[0]
	victim := filepath.Join(outRoot, view.Tree.Path(first.DirID), first.Name)
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
	ref, err := executeShard(p, 0, t.TempDir(), WorkerOptions{Parallelism: 1})
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
	p := planRoundTrip(t, testConfig(), 2)
	check, err := NewManifestCheck(p.source())
	if err != nil {
		t.Fatalf("NewManifestCheck: %v", err)
	}
	view := p.view(t, 0)
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
			if err := check.Verify(res.Manifest); err != nil {
				t.Fatalf("manifest: %v", err)
			}
			cleanRoot := t.TempDir()
			clean, err := executeShard(p, 0, cleanRoot, WorkerOptions{MetadataOnly: c.thenMeta})
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

// TestResumeInDirectoryOrder: journal positions index the shard's directory
// order. A crash in the middle of one directory's run of files, or exactly
// on a batch boundary, leaves on disk the files of the sealed prefix of
// that order and no other, and the execution resuming from it skips them
// and seals the pinned manifest.
func TestResumeInDirectoryOrder(t *testing.T) {
	const batch = 8
	pristine := goldenShard(t)
	// A crash point on no batch boundary with two files of one directory's
	// run before it and two after.
	midRun := -1
	for p := batch + 2; p+1 < len(pristine.Files) && midRun < 0; p++ {
		dir := pristine.Files[p].DirID
		if p%batch != 0 && pristine.Files[p-2].DirID == dir && pristine.Files[p+1].DirID == dir {
			midRun = p
		}
	}
	if midRun < 0 {
		t.Fatal("no directory run spans a crash point")
	}
	for _, c := range []struct {
		name  string
		crash int
	}{
		{fmt.Sprintf("mid-run at file %d", midRun), midRun},
		{"on the boundary of batch 2", 2 * batch},
	} {
		for _, j := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s j=%d", c.name, j), func(t *testing.T) {
				root, journal := t.TempDir(), filepath.Join(t.TempDir(), "journal")
				opts := WorkerOptions{Parallelism: j, JournalPath: journal, BatchFiles: batch, FailAfterFiles: c.crash}
				if _, err := Execute(context.Background(), pristine, DirTarget(root), opts); !errors.Is(err, ErrSimulatedCrash) {
					t.Fatalf("injected crash: got %v, want ErrSimulatedCrash", err)
				}
				rec, err := loadJournal(journal, pristine.Plan.Fingerprint(), pristine.Shard)
				if err != nil || len(rec.digests) != c.crash {
					t.Fatalf("the crashed run's journal proves %v files (%v), want %d", rec, err, c.crash)
				}
				if n := regularFiles(t, root); n != c.crash {
					t.Errorf("%d files on disk, want the %d the journal proves", n, c.crash)
				}
				for i := range c.crash {
					f := pristine.Files[i]
					if _, err := os.Stat(filepath.Join(root, filepath.FromSlash(pristine.Tree.Path(f.DirID)), f.Name)); err != nil {
						t.Errorf("file %d of the directory order, proven by the journal: %v", i, err)
					}
				}
				opts.FailAfterFiles = 0
				res, err := Execute(context.Background(), pristine, DirTarget(root), opts)
				if err != nil {
					t.Fatalf("resumed execution: %v", err)
				}
				if res.ResumedFiles != c.crash || res.Manifest.ManifestSHA256 != goldenManifests[1] {
					t.Errorf("resumed %d files to manifest %s, want %d and %s", res.ResumedFiles, res.Manifest.ManifestSHA256, c.crash, goldenManifests[1])
				}
			})
		}
	}
}

// goldenJournalV1 is the SHA-256 of testdata/journal-v1-shard1.jsonl: the
// journal a JournalVersion 1 build left when FailAfterFiles stopped
// goldenShard at 20 files, in batches of 8 — that build's goldenJournals[1].
const goldenJournalV1 = "3f0d0d4abe6159dc7a767510b4e3576464fc0cbe1134339a34ba795c17182435"

// TestJournalV1Refused: a version 1 journal indexes the shard's file list,
// not its directory order, so it is refused and deleted, and the shard
// restarts to the pinned manifest — though every file it names is on disk
// at its size, so the version alone refuses it.
func TestJournalV1Refused(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "journal-v1-shard1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(v1); got != goldenJournalV1 {
		t.Fatalf("the version 1 journal hashes to %s, pinned %s", got, goldenJournalV1)
	}
	pristine := goldenShard(t)
	for _, j := range []int{1, 4} {
		t.Run(fmt.Sprintf("j=%d", j), func(t *testing.T) {
			root, journal := t.TempDir(), filepath.Join(t.TempDir(), "journal")
			if _, err := Execute(context.Background(), pristine, DirTarget(root), WorkerOptions{Parallelism: j}); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(journal, v1, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := loadJournal(journal, pristine.Plan.Fingerprint(), pristine.Shard); !errors.Is(err, fsimage.ErrPlanVersion) {
				t.Fatalf("loading the version 1 journal: got %v, want ErrPlanVersion", err)
			}
			if rec := recoverJournal(journal, pristine, root, false); len(rec.digests) != 0 {
				t.Fatalf("the version 1 journal proved %d files", len(rec.digests))
			}
			if _, err := os.Stat(journal); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("the refused journal was not deleted: %v", err)
			}

			if err := os.WriteFile(journal, v1, 0o644); err != nil {
				t.Fatal(err)
			}
			res, err := Execute(context.Background(), pristine, DirTarget(root), WorkerOptions{Parallelism: j, JournalPath: journal, BatchFiles: 8})
			if err != nil {
				t.Fatalf("execution over the version 1 journal: %v", err)
			}
			if res.ResumedFiles != 0 || res.Manifest.ManifestSHA256 != goldenManifests[1] {
				t.Errorf("resumed %d files to manifest %s, want none and %s", res.ResumedFiles, res.Manifest.ManifestSHA256, goldenManifests[1])
			}
			// What the execution left is its own journal, version 2 throughout.
			if rec, err := loadJournal(journal, pristine.Plan.Fingerprint(), pristine.Shard); err != nil || len(rec.digests) != len(pristine.Files) {
				t.Errorf("the journal after the restart: %v, want all %d files of version 2", err, len(pristine.Files))
			}
		})
	}
}
