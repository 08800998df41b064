package core

import (
	"context"
	"fmt"
	"testing"

	"impressions/internal/fsimage"
	"impressions/internal/namespace"
	"impressions/internal/stats"
)

// Golden pins for the metadata pass. The values were taken at the commit
// before the pass was rewritten over one column store (PR 18's tree), where
// the in-memory and the spilled pass were two implementations compared only
// with each other — a comparison that a change made to both alike passes.
// Each pin is required of both backings at Parallelism 1 and 4. A value here
// changes only when what a spec emits is meant to change.

// goldenShape says which way through the size resolver a case was written
// to take; the test checks that it took it.
type goldenShape int

const (
	shapeRawDraw     goldenShape = iota // attempt 0's raw draw is inside the tolerance
	shapeOversampled                    // converged after oversampling
	shapeFallback                       // never converged: the raw fallback sample
)

// goldenBase asks the default size model for 2 KB a file, which it cannot
// come down to: the cases built on it take the fallback sample, whose sizes
// span nine decades — the widest input the depth model sees.
func goldenBase() Config {
	return Config{NumFiles: 5000, NumDirs: 500, FSSizeBytes: 5000 * 2048, Seed: 42}
}

func goldenWith(adjust func(*Config)) Config {
	cfg := goldenBase()
	adjust(&cfg)
	return cfg
}

// smallModel is the benchmark's SMALL file-size model (-size-mu 6.9
// -size-sigma 0.5).
func smallModel() stats.Distribution {
	return stats.NewHybrid(stats.NewLognormal(6.9, 0.5), stats.NewPareto(DefaultParetoK, DefaultParetoXm), DefaultFileSizeBodyWeight)
}

var goldenMetadata = []struct {
	name  string
	cfg   Config
	shape goldenShape

	chain       string // fsimage.ChunkEncoder chain hash of StreamRecords, 64-record chunks
	totalBytes  int64
	oversamples int
}{
	{
		// The target sits on the sum of attempt 0's pool for this seed and
		// count, so the column keeps the raw draw.
		name: "raw draw inside the tolerance", shape: shapeRawDraw,
		cfg:   goldenWith(func(c *Config) { c.FSSizeBytes = 2_138_609_562 }),
		chain: "9ef08f0cb9b43c136062461baccf00bc07c1d5dc51da07370e0406f033d7fc02", totalBytes: 2_138_609_541, oversamples: 0,
	},
	{
		// The benchmark's SMALL(30000): a Pareto draw in the pool, an
		// N-subset without it a few oversamples later.
		name: "converged after oversampling", shape: shapeOversampled,
		cfg:   Config{NumFiles: 30000, NumDirs: 3000, FSSizeBytes: 34406400, FileSizeDist: smallModel(), Seed: 20090225},
		chain: "fff61c9d24dbabbf66b12236b9cbf014aa0217f0691313e425dd82a8c80b1b54", totalBytes: 33_821_426, oversamples: 2,
	},
	{
		// The benchmark's meta shape: no size, so the target is N × a mean
		// the sample never reaches and the column is the fallback sample.
		name: "never converged", shape: shapeFallback,
		cfg:   Config{NumFiles: 20000, Seed: 20090225},
		chain: "ed2655594c6dec4ae9b8248346cbcf6377bc59eb0f1891b96d1fcf74d05dae6f", totalBytes: 13_472_809_856, oversamples: 20000,
	},
	{
		name: "special directories", shape: shapeFallback,
		cfg:   goldenWith(func(c *Config) { c.UseSpecialDirectories = true }),
		chain: "9ab5b12919047371d7e568b5a088423e817f89ec42b8298ab04a21b999f1c2e8", totalBytes: 1_257_887_934, oversamples: 5000,
	},
	{
		name: "deep tree", shape: shapeFallback,
		cfg:   goldenWith(func(c *Config) { c.TreeShape = namespace.ShapeDeep }),
		chain: "369b94e373a7840002c096b3f88e6017c5eb04f5cab403e6c4c96b736682298d", totalBytes: 1_257_887_934, oversamples: 5000,
	},
	{
		name: "flat tree", shape: shapeFallback,
		cfg:   goldenWith(func(c *Config) { c.TreeShape = namespace.ShapeFlat }),
		chain: "d113a71efa5222e42ca567c6beec4830406bd11239898f87e93b7cea273575c3", totalBytes: 1_257_887_934, oversamples: 5000,
	},
	{
		name: "no size-depth coupling", shape: shapeFallback,
		cfg:   goldenWith(func(c *Config) { c.DisableSizeDepthCoupling = true }),
		chain: "7dd384b630396a8e4dcd56d4db645d458fe698c82c5b5430121235180faee688", totalBytes: 1_257_887_934, oversamples: 5000,
	},
	// File counts that end the columns on a lone value, just short of, on
	// and just past a shard edge, and one value into a third shard; all but
	// the first keep the raw draw, the path that fills the column shard by
	// shard.
	{name: "1 file", shape: shapeOversampled, cfg: goldenCount(1), chain: "31da8812b769cfe08b923b8347efb85dbef874bd6f6c942e568f7b3d285503bc", totalBytes: 1145, oversamples: 1},
	{name: "4095 files", shape: shapeRawDraw, cfg: goldenCount(4095), chain: "5c5df533047543cc6793e37f84855d7502684db04808bffd2dee482b90fb9c7f", totalBytes: 4_636_376, oversamples: 0},
	{name: "4096 files", shape: shapeRawDraw, cfg: goldenCount(4096), chain: "e79133748f53543bd127b0df0493fa43f4254f47220b236a6d37a9e330d9228a", totalBytes: 4_637_439, oversamples: 0},
	{name: "4097 files", shape: shapeRawDraw, cfg: goldenCount(4097), chain: "9e4c0995d458fe5d7bc539582eb187b05302a5a41c16b4a84cfaf0b19288b11e", totalBytes: 4_638_463, oversamples: 0},
	{name: "8193 files", shape: shapeRawDraw, cfg: goldenCount(8193), chain: "efd800ae9258e0d934677d77ad8f8159e05e89d2cd5e1fe8d42e5179579e79d3", totalBytes: 9_216_920, oversamples: 0},
}

func goldenCount(n int) Config {
	return Config{NumFiles: n, NumDirs: 50, FSSizeBytes: int64(1.12 * 1024 * float64(n)), FileSizeDist: smallModel(), Seed: 20090225}
}

func TestGoldenMetadata(t *testing.T) {
	for _, pin := range goldenMetadata {
		for _, spilled := range []bool{false, true} {
			for _, par := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/spill=%v/j%d", pin.name, spilled, par), func(t *testing.T) {
					cfg := pin.cfg
					cfg.Parallelism = par
					if spilled {
						cfg.SpillDir = t.TempDir()
					}
					gen, err := NewGenerator(cfg)
					if err != nil {
						t.Fatal(err)
					}
					m, err := gen.ResolveMetadataContext(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					defer m.Close()
					enc := fsimage.NewChunkEncoder(64, func(*fsimage.Chunk) error { return nil })
					if err := m.StreamRecords(enc); err != nil {
						t.Fatal(err)
					}
					if err := enc.Close(); err != nil {
						t.Fatal(err)
					}
					report, _, err := m.Report()
					if err != nil {
						t.Fatal(err)
					}
					oversamples := report.Oversamples
					if got := enc.ChainHash(); got != pin.chain {
						t.Errorf("chain hash %s, pinned %s", got, pin.chain)
					}
					if got := m.TotalBytes(); got != pin.totalBytes {
						t.Errorf("TotalBytes = %d, pinned %d", got, pin.totalBytes)
					}
					if oversamples != pin.oversamples {
						t.Errorf("Report.Oversamples = %d, pinned %d", oversamples, pin.oversamples)
					}
					c := m.convergence
					switch pin.shape {
					case shapeRawDraw:
						if !c.Converged || c.Oversamples != 0 {
							t.Errorf("the raw draw was not kept: converged %v after %d oversamples", c.Converged, c.Oversamples)
						}
					case shapeOversampled:
						if !c.Converged || c.Oversamples == 0 {
							t.Errorf("not resolved by oversampling: converged %v after %d oversamples", c.Converged, c.Oversamples)
						}
					case shapeFallback:
						if c.Converged {
							t.Error("converged; the case is the fallback sample")
						}
					}
				})
			}
		}
	}
}
