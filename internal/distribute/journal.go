package distribute

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"impressions/internal/fsimage"
)

// This file implements the shard journal behind WorkerOptions.JournalPath:
// a worker executing a shard flushes sealed batches of per-file content
// digests to an append-only journal as the content pass runs, so a
// preempted worker resumes from the last sealed batch instead of
// regenerating the whole shard. The journal is the mid-shard analogue of the sealed manifest —
// every batch is fingerprint-bound and chained to its predecessor, so a
// stale, torn, or foreign journal is detected and discarded, never trusted.

// JournalVersion is the shard-journal wire version.
const JournalVersion = 1

// journalChainSeed anchors the batch seal chain.
const journalChainSeed = "impressions-journal-v1"

// JournalBatch is one sealed entry of a shard journal: the content digests
// (and byte count) of a contiguous run of the shard's files, in shard file
// order. Start indexes into the shard's file list (ShardView.Files), not
// image file IDs, so contiguity is trivial to verify.
type JournalBatch struct {
	FormatVersion   int    `json:"format_version"`
	PlanFingerprint string `json:"plan_fingerprint"`
	Shard           int    `json:"shard"`
	// Start is the index (in the shard's file list) of the batch's first
	// file; a valid journal's batches are contiguous from 0.
	Start int `json:"start"`
	// Digests holds the SHA-256 (hex) of each file's written content.
	Digests []string `json:"digests"`
	// Bytes is the total bytes this batch wrote.
	Bytes int64 `json:"bytes"`
	// Seal chains this batch to its predecessor (journalChainSeed for the
	// first): H(prev seal, fingerprint, shard, start, digests, bytes).
	Seal string `json:"seal"`
}

// sealBatch computes a batch's chain seal over the previous one's.
func sealBatch(prev string, b *JournalBatch) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\nv%d plan:%s shard:%d start:%d bytes:%d\n", prev, b.FormatVersion, b.PlanFingerprint, b.Shard, b.Start, b.Bytes)
	for _, d := range b.Digests {
		fmt.Fprintf(h, "%s\n", d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ShardJournal appends sealed digest batches for one shard execution to a
// file, fsyncing each batch so a SIGKILL loses at most the unsealed tail.
type ShardJournal struct {
	f        *os.File
	fp       string
	shard    int
	lastSeal string
	next     int // index of the next file a batch may start at
}

// journalRecovery is what loading a journal yields: the files already
// proven done and the chain state appends continue from.
type journalRecovery struct {
	digests  []string // per shard-file-index, contiguous from 0
	bytes    int64
	lastSeal string
	// size is the length of the verified prefix of the file: what follows it
	// is a torn tail, cut before anything is appended.
	size int64
}

// loadJournal reads and verifies a journal file against the plan
// fingerprint and shard. It stops at the first torn or unparsable line
// (a crash mid-append) and returns what verified, with the byte offset just
// past it; a batch that breaks the chain, the fingerprint binding, or
// contiguity invalidates the whole journal (returned error), because a
// wrong prefix cannot be trusted as done work.
func loadJournal(path, fingerprint string, shard int) (*journalRecovery, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return &journalRecovery{lastSeal: journalChainSeed}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("distribute: opening shard journal: %w", err)
	}
	defer f.Close()
	rec := &journalRecovery{lastSeal: journalChainSeed}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	sc.Split(scanTerminatedLines)
	for sc.Scan() {
		line, whole := bytes.CutSuffix(sc.Bytes(), []byte("\n"))
		if whole && len(line) == 0 {
			rec.size++
			continue
		}
		var b JournalBatch
		if !whole || json.Unmarshal(line, &b) != nil {
			// A torn tail line is the expected crash signature: everything
			// sealed before it still counts.
			break
		}
		if b.FormatVersion != JournalVersion {
			return nil, fmt.Errorf("distribute: shard journal format v%d, this build speaks v%d (%w)", b.FormatVersion, JournalVersion, fsimage.ErrPlanVersion)
		}
		if b.PlanFingerprint != fingerprint || b.Shard != shard {
			return nil, fmt.Errorf("distribute: shard journal is for plan %s shard %d, want plan %s shard %d (%w)",
				b.PlanFingerprint, b.Shard, fingerprint, shard, fsimage.ErrManifestIntegrity)
		}
		if b.Start != len(rec.digests) {
			return nil, fmt.Errorf("distribute: shard journal batch starts at file %d, expected %d (%w)", b.Start, len(rec.digests), fsimage.ErrManifestIntegrity)
		}
		seal := b.Seal
		b.Seal = ""
		if got := sealBatch(rec.lastSeal, &b); got != seal {
			return nil, fmt.Errorf("distribute: shard journal batch at file %d failed its seal check — tampered or corrupt (%w)", b.Start, fsimage.ErrManifestIntegrity)
		}
		rec.digests = append(rec.digests, b.Digests...)
		rec.bytes += b.Bytes
		rec.lastSeal = seal
		rec.size += int64(len(line)) + 1
	}
	if err := sc.Err(); err != nil && !errors.Is(err, bufio.ErrTooLong) {
		return nil, fmt.Errorf("distribute: reading shard journal: %w", err)
	}
	return rec, nil
}

// scanTerminatedLines splits a journal into lines that keep their newline,
// so a last line without one — written in part — is told from a sealed
// batch.
func scanTerminatedLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// openJournal opens (creating or truncating-to-resume) the journal for
// appending after rec's sealed files: a torn tail past rec.size is cut
// first, or the next batch would be glued onto it and never verify.
func openJournal(path, fingerprint string, shard int, rec *journalRecovery) (*ShardJournal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("distribute: opening shard journal: %w", err)
	}
	if err := f.Truncate(rec.size); err != nil {
		f.Close()
		return nil, fmt.Errorf("distribute: cutting the torn tail of the shard journal: %w", err)
	}
	return &ShardJournal{f: f, fp: fingerprint, shard: shard, lastSeal: rec.lastSeal, next: len(rec.digests)}, nil
}

// Append seals and flushes one batch. digests cover the shard's files
// [j.next, j.next+len(digests)).
func (j *ShardJournal) Append(digests []string, bytes int64) error {
	b := JournalBatch{
		FormatVersion:   JournalVersion,
		PlanFingerprint: j.fp,
		Shard:           j.shard,
		Start:           j.next,
		Digests:         digests,
		Bytes:           bytes,
	}
	b.Seal = sealBatch(j.lastSeal, &b)
	line, err := json.Marshal(&b)
	if err != nil {
		return fmt.Errorf("distribute: encoding journal batch: %w", err)
	}
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("distribute: appending journal batch: %w", err)
	}
	// The fsync is the seal's whole point: a batch either survives a
	// SIGKILL intact or its torn tail is skipped on recovery.
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("distribute: syncing shard journal: %w", err)
	}
	j.lastSeal = b.Seal
	j.next += len(digests)
	return nil
}

// Close closes the journal file.
func (j *ShardJournal) Close() error { return j.f.Close() }

// DefaultJournalBatch is the files-per-batch flush granularity of journaled
// shard execution.
const DefaultJournalBatch = 256

// JournalFile names the journal of one shard of one plan under workDir. A
// worker and whoever supervises it (the fleet worker itself, distrun over
// its worker processes) derive the path from the same three values, so the
// one that learns the manifest is committed, or refused, finds the journal
// that produced it.
func JournalFile(workDir, fingerprint string, shard int) string {
	return filepath.Join(workDir, fmt.Sprintf("journal-%s-%d.jsonl", fingerprint[:min(len(fingerprint), 12)], shard))
}

// recoverJournal returns what the journal at path proves done for this
// shard under outRoot, trusting it only as far as the disk agrees: every
// resumed file must exist, regular, at its planned size (a stat pass, not a
// re-hash — the seal chain plus fingerprint binding covers content), and
// must have been written in the content mode this execution runs in — a
// metadata-only run seals empty digests over sized, empty files, which are
// exactly what the stat pass accepts. A journal that cannot be trusted is
// deleted, not argued with: the recovery is then empty and the shard
// restarts from scratch.
func recoverJournal(path string, v *ShardView, outRoot string, metadataOnly bool) *journalRecovery {
	rec, err := loadJournal(path, v.Plan.Fingerprint(), v.Shard)
	trusted := err == nil && len(rec.digests) <= len(v.Files)
	for i := 0; trusted && i < len(rec.digests); i++ {
		f := v.Files[i]
		info, serr := os.Stat(filepath.Join(outRoot, filepath.FromSlash(v.Tree.Path(f.DirID)), f.Name))
		trusted = serr == nil && info.Mode().IsRegular() && info.Size() == f.Size && (rec.digests[i] == "") == metadataOnly
	}
	if !trusted {
		os.Remove(path)
		return &journalRecovery{lastSeal: journalChainSeed}
	}
	return rec
}
