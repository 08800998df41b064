package main

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// yardstick is a fixed piece of work of the harness's own, timed before every
// timed command of the sweeps, to read how fast the machine is at that moment.
//
// The box this was sized on is a shared microVM whose speed moves by a tenth
// to a quarter for tens of seconds to minutes at a time, with no steal time to
// show for it (the neighbours are in the caches, not in the run queue): 400 s
// of distrun_k2 at one seed read 1.02, 0.85, 0.84, 0.88, 0.98, 0.89, 0.85 and
// 0.79 s in successive half minutes. Runs of the same code, minutes apart,
// therefore disagree by more than any bound worth having, whatever is taken
// of the commands inside one run: median, quartile and minimum move together.
//
// The yardstick moves with them. It runs nothing of the program under test,
// so no change to the program can move it, and it does a little of each kind
// of work the workloads do: arithmetic and hashing inside the core's own
// caches, dependent loads from memory, file creation on the scratch file
// system. README.md ("The yardstick") has what it was measured to remove.
type yardstick struct {
	dir   string
	table []byte   // 1 MiB, stays in the core's own cache
	chain []uint32 // 64 MiB, one cycle through every slot in a scattered order
	data  []byte   // what each file is given
	sink  uint64   // keeps the work observable
}

// yardstickReference is what the yardstick takes on the box this was sized on
// while its neighbours are quiet. Only the driver's result line uses it: the
// timings there are what the commands would have taken at this speed.
const yardstickReference = 0.215 // s

const (
	yardstickMixes = 18_000_000 // xorshift steps, each touching the table
	yardstickHash  = 36         // SHA-256 passes over the table
	yardstickLoads = 600_000    // dependent loads along the chain
	yardstickDirs  = 100
	yardstickFiles = 50 // per directory
)

func newYardstick(dir string) *yardstick {
	y := &yardstick{dir: dir, table: make([]byte, 1<<20), chain: make([]uint32, 1<<24), data: make([]byte, 1100)}
	// A full-period linear congruence (multiplier 1 mod 4, odd increment, size
	// a power of two) visits every slot once, far from the slot before.
	n := uint32(len(y.chain))
	for i := range y.chain {
		y.chain[i] = (uint32(i)*1_664_525 + 1_013_904_223) & (n - 1)
	}
	return y
}

// run does the work once and returns how long it took.
func (y *yardstick) run() (float64, error) {
	start := time.Now()

	x := uint64(88172645463325252)
	mask := uint64(len(y.table) - 1)
	for i := 0; i < yardstickMixes; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		y.table[x&mask] += byte(x)
	}
	h := sha256.New()
	for i := 0; i < yardstickHash; i++ {
		h.Write(y.table)
	}
	y.sink += x + uint64(h.Sum(nil)[0])

	j := uint32(y.sink) & uint32(len(y.chain)-1)
	for i := 0; i < yardstickLoads; i++ {
		j = y.chain[j]
	}
	y.sink += uint64(j)

	defer os.RemoveAll(y.dir)
	for d := 0; d < yardstickDirs; d++ {
		sub := filepath.Join(y.dir, strconv.Itoa(d))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return 0, err
		}
		for f := 0; f < yardstickFiles; f++ {
			if err := os.WriteFile(filepath.Join(sub, strconv.Itoa(f)), y.data, 0o644); err != nil {
				return 0, err
			}
		}
	}
	if err := os.RemoveAll(y.dir); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}
