package content

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"impressions/internal/stats"
)

// generateBytes renders one file's content into memory.
func generateBytes(t *testing.T, r *Registry, ext string, size int64, rng *stats.RNG) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.ForExtension(ext).Generate(&buf, size, rng); err != nil {
		t.Fatalf("generate %q: %v", ext, err)
	}
	return buf.Bytes()
}

// TestConcurrentContentGeneration is the -race stress test for the content
// subsystem: one shared Registry, many goroutines, every policy extension in
// flight at once, each goroutine drawing from its own derived stream. It also
// asserts reentrancy semantically: the bytes produced under contention match
// the bytes produced serially from the same streams.
func TestConcurrentContentGeneration(t *testing.T) {
	reg := NewRegistry(KindDefault)
	exts := []string{"txt", "jpg", "gif", "png", "mp3", "pdf", "html", "zip", "exe", "dll", "mpg", "wav", "xyz", ""}
	const workers = 8
	const filesPerWorker = 30
	parent := stats.NewRNG(321)

	type job struct {
		key  string
		ext  string
		size int64
	}
	jobs := make([]job, 0, workers*filesPerWorker)
	for w := 0; w < workers; w++ {
		for i := 0; i < filesPerWorker; i++ {
			jobs = append(jobs, job{
				key:  fmt.Sprintf("w%d/f%d", w, i),
				ext:  exts[(w*filesPerWorker+i)%len(exts)],
				size: int64(512 + 137*i),
			})
		}
	}

	// Serial reference pass.
	want := make([][]byte, len(jobs))
	for i, j := range jobs {
		want[i] = generateBytes(t, reg, j.ext, j.size, parent.SplitStream(j.key))
	}

	// Concurrent pass over the same shared registry and streams.
	got := make([][]byte, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(jobs); i += workers {
				j := jobs[i]
				got[i] = generateBytes(t, reg, j.ext, j.size, parent.SplitStream(j.key))
			}
		}(w)
	}
	wg.Wait()

	for i := range jobs {
		if int64(len(got[i])) != jobs[i].size {
			t.Fatalf("job %s: wrote %d bytes, want %d", jobs[i].key, len(got[i]), jobs[i].size)
		}
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("job %s (%q): concurrent bytes differ from serial bytes", jobs[i].key, jobs[i].ext)
		}
	}
}

// TestRegistriesAreIndependent guards against package-level mutable state:
// two registries of the same kind must not affect each other, and generating
// through one must not change what the other produces.
func TestRegistriesAreIndependent(t *testing.T) {
	a := NewRegistry(KindDefault)
	b := NewRegistry(KindDefault)
	refA := generateBytes(t, a, "txt", 4096, stats.NewRNG(5))
	// Mutate b's text model; a must be unaffected.
	b.Register(NewTextGenerator(NewSingleWordModel("zzz")), "txt")
	againA := generateBytes(t, a, "txt", 4096, stats.NewRNG(5))
	if !bytes.Equal(refA, againA) {
		t.Fatal("mutating one registry changed another registry's output")
	}
	fromB := generateBytes(t, b, "txt", 4096, stats.NewRNG(5))
	if bytes.Equal(refA, fromB) {
		t.Fatal("Register had no effect on the mutated registry")
	}
}
