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
// The chains were taken again when the canonical file order became
// directory-major (plan format 5), which renames every file; the placed
// multisets (multiset_test.go) held across that change.
// Each pin is required of both backings at Parallelism 1 and 4. A value here
// changes only when what a spec emits is meant to change.

// goldenShape says which way through the size resolver a case was written
// to take; the test checks that it took it.
type goldenShape int

const (
	shapeRawDraw     goldenShape = iota // attempt 0's raw draw is inside the tolerance
	shapeOversampled                    // converged after oversampling
	shapeFallback                       // never converged: the raw fallback sample
	shapeNoSize                         // no size requested: the first pool, unresolved
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
func smallModel() stats.Distribution { return sizeModel(6.9, 0.5) }

// sizeModel is the size model of -size-mu mu -size-sigma sigma.
func sizeModel(mu, sigma float64) stats.Distribution {
	return stats.NewHybrid(stats.NewLognormal(mu, sigma), stats.NewPareto(DefaultParetoK, DefaultParetoXm), DefaultFileSizeBodyWeight)
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
		chain: "ab003735435ec6dddf5c0424ba44d53a3188c55988698043b6a47990baf7d120", totalBytes: 2_138_609_541, oversamples: 0,
	},
	{
		// The benchmark's SMALL(30000): a Pareto draw in the pool, an
		// N-subset without it a few oversamples later.
		name: "converged after oversampling", shape: shapeOversampled,
		cfg:   Config{NumFiles: 30000, NumDirs: 3000, FSSizeBytes: 34406400, FileSizeDist: smallModel(), Seed: 20090225},
		chain: "38331c538db88023e65d11436bd2b6ec18f6ac6e666d32e3b3d2111273ff0ccc", totalBytes: 33_821_426, oversamples: 2,
	},
	{
		// The benchmark's meta shape: no size, so the column is the first
		// pool drawn.
		name: "no size requested", shape: shapeNoSize,
		cfg:   Config{NumFiles: 20000, Seed: 20090225},
		chain: "1b8cfaf1515df91677c6d4bcf89edfd89796e6aa998ef38b56822dad61964caf", totalBytes: 7_119_284_183, oversamples: 0,
	},
	{
		// make dist-check's spec: no size either, on a lognormal body of
		// its own.
		name: "dist-check spec", shape: shapeNoSize,
		cfg:   Config{NumFiles: 3000, NumDirs: 600, FileSizeDist: sizeModel(8, 1.2), Seed: 20090225},
		chain: "92259ce55d6febbd01860ceac1823ac31e99841627d8171b8253e2842eb8efe0", totalBytes: 18_158_445, oversamples: 0,
	},
	{
		name: "special directories", shape: shapeFallback,
		cfg:   goldenWith(func(c *Config) { c.UseSpecialDirectories = true }),
		chain: "eab4ef617f0baf6a2aaecb454ed872e3a12757fe325f57eab007e558150aaa56", totalBytes: 1_257_887_934, oversamples: 5000,
	},
	{
		name: "deep tree", shape: shapeFallback,
		cfg:   goldenWith(func(c *Config) { c.TreeShape = namespace.ShapeDeep }),
		chain: "ca67fdaa1a4084b8924ca0d6238a173eedbab8960db9c577bc18c1f9ca729b7b", totalBytes: 1_257_887_934, oversamples: 5000,
	},
	{
		name: "flat tree", shape: shapeFallback,
		cfg:   goldenWith(func(c *Config) { c.TreeShape = namespace.ShapeFlat }),
		chain: "928f8a6adec488b789027798bbe6441393b47e0e7873c0971c457b6b2e4554b7", totalBytes: 1_257_887_934, oversamples: 5000,
	},
	{
		name: "no size-depth coupling", shape: shapeFallback,
		cfg:   goldenWith(func(c *Config) { c.DisableSizeDepthCoupling = true }),
		chain: "b94f32a8c0d4f4e756152b18561d1462c364c767d088fda58ce8f01328e23ed2", totalBytes: 1_257_887_934, oversamples: 5000,
	},
	// File counts that end the columns on a lone value, just short of, on
	// and just past a shard edge, and one value into a third shard; all but
	// the first keep the raw draw, the path that fills the column shard by
	// shard.
	{name: "1 file", shape: shapeOversampled, cfg: goldenCount(1), chain: "31da8812b769cfe08b923b8347efb85dbef874bd6f6c942e568f7b3d285503bc", totalBytes: 1145, oversamples: 1},
	{name: "4095 files", shape: shapeRawDraw, cfg: goldenCount(4095), chain: "9bd8a1ac63cc120c3e57e1f5f5f9963742f4d2c40395a1f80321223390d14883", totalBytes: 4_636_376, oversamples: 0},
	{name: "4096 files", shape: shapeRawDraw, cfg: goldenCount(4096), chain: "29ed966e36f9f08c468dc432ca8d7d8a9f44da93c23cb0db8563b34a1101bada", totalBytes: 4_637_439, oversamples: 0},
	{name: "4097 files", shape: shapeRawDraw, cfg: goldenCount(4097), chain: "5e703a98061fc817ecf33f2590613c7c37cc79b2bc23a765e6db34235c47658b", totalBytes: 4_638_463, oversamples: 0},
	{name: "8193 files", shape: shapeRawDraw, cfg: goldenCount(8193), chain: "45a22e7775296e372c46219c7e1ca12ef3b5435705ed578d2a61981c117e26aa", totalBytes: 9_216_920, oversamples: 0},
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
					report, err := m.Report()
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
					case shapeNoSize:
						if !c.Converged || c.Oversamples != 0 || c.InitialBeta != 0 || c.FinalBeta != 0 {
							t.Errorf("not the first pool: converged %v after %d oversamples, betas %v and %v", c.Converged, c.Oversamples, c.InitialBeta, c.FinalBeta)
						}
					}
				})
			}
		}
	}
}
