package core_test

import (
	"reflect"
	"testing"

	"impressions/internal/content"
	"impressions/internal/core"
	"impressions/internal/distribute"
	"impressions/internal/fsimage"
	"impressions/internal/namespace"
)

// TestConfigFromSpecRoundTrip: for every generation flag the command line
// can set, the spec a generator records rebuilds a config whose generator
// records the same spec, under the same fingerprint, and generates the same
// image — the reproducibility promise the spec exists for. -size-mu and
// -size-sigma are left out: the spec records the size model by name only,
// so an image drawn from another model does not round-trip.
func TestConfigFromSpecRoundTrip(t *testing.T) {
	base := core.Config{NumFiles: 400, NumDirs: 80, Seed: 99}
	with := func(edit func(*core.Config)) core.Config {
		cfg := base
		edit(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"-size", core.Config{FSSizeBytes: 20 << 20}},
		{"-files -dirs", core.Config{NumFiles: 400, NumDirs: 80}},
		{"-files -dirs -seed", base},
		{"-layout 0.8", with(func(c *core.Config) { c.LayoutScore = 0.8 })},
		{"-tree flat", with(func(c *core.Config) { c.TreeShape = namespace.ShapeFlat })},
		{"-tree deep", with(func(c *core.Config) { c.TreeShape = namespace.ShapeDeep })},
		{"-special-dirs", with(func(c *core.Config) { c.UseSpecialDirectories = true })},
		{"no size-depth coupling", with(func(c *core.Config) { c.DisableSizeDepthCoupling = true })},
	}
	for _, kind := range []content.Kind{content.KindDefault, content.KindTextSingleWord, content.KindTextModel, content.KindImage, content.KindBinary, content.KindZero} {
		cases = append(cases, struct {
			name string
			cfg  core.Config
		}{"-content " + string(kind), with(func(c *core.Config) { c.ContentKind = kind })})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Parallelism = 1
			gen, err := core.NewGenerator(tc.cfg)
			if err != nil {
				t.Fatalf("NewGenerator: %v", err)
			}
			spec := gen.Spec()
			cfg, err := core.ConfigFromSpec(spec)
			if err != nil {
				t.Fatalf("ConfigFromSpec: %v", err)
			}
			again, err := core.NewGenerator(cfg)
			if err != nil {
				t.Fatalf("NewGenerator from the spec: %v", err)
			}
			if got := again.Spec(); !reflect.DeepEqual(got, spec) {
				t.Fatalf("spec differs after the round trip:\n%+v\nvs\n%+v", got, spec)
			}
			fp := func(g *core.Generator) string {
				s, err := distribute.SpecFingerprint(g.Spec(), 4, 0)
				if err != nil {
					t.Fatalf("SpecFingerprint: %v", err)
				}
				return s
			}
			if a, b := fp(gen), fp(again); a != b {
				t.Fatalf("fingerprint %s after the round trip, %s before", b, a)
			}
			ref, err := gen.Generate()
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			res, err := again.Generate()
			if err != nil {
				t.Fatalf("regenerating from the spec: %v", err)
			}
			if !reflect.DeepEqual(ref.Image.Files, res.Image.Files) {
				t.Fatal("file list differs after the round trip")
			}
			if !reflect.DeepEqual(ref.Image.Tree.Dirs, res.Image.Tree.Dirs) {
				t.Fatal("directory tree differs after the round trip")
			}
		})
	}
}

// TestSpecRecordsSizeDepthCoupling: an image placed without the
// size-depth coupling (the ablation's Poisson-only placement) records
// another spec, under another plan fingerprint, than the coupled image of
// the same flags, and its spec restores the switch.
func TestSpecRecordsSizeDepthCoupling(t *testing.T) {
	specOf := func(disable bool) fsimage.Spec {
		gen, err := core.NewGenerator(core.Config{NumFiles: 400, NumDirs: 80, Seed: 99, DisableSizeDepthCoupling: disable})
		if err != nil {
			t.Fatalf("NewGenerator: %v", err)
		}
		return gen.Spec()
	}
	coupled, uncoupled := specOf(false), specOf(true)
	if reflect.DeepEqual(coupled, uncoupled) {
		t.Fatal("the uncoupled image records the coupled image's spec")
	}
	fp := func(spec fsimage.Spec) string {
		s, err := distribute.SpecFingerprint(spec, 4, 0)
		if err != nil {
			t.Fatalf("SpecFingerprint: %v", err)
		}
		return s
	}
	if fp(coupled) == fp(uncoupled) {
		t.Error("the uncoupled image's plan fingerprint is the coupled image's")
	}
	for disable, spec := range []fsimage.Spec{coupled, uncoupled} {
		cfg, err := core.ConfigFromSpec(spec)
		if err != nil {
			t.Fatalf("ConfigFromSpec: %v", err)
		}
		if want := disable == 1; cfg.DisableSizeDepthCoupling != want {
			t.Errorf("ConfigFromSpec restored DisableSizeDepthCoupling %v, want %v", cfg.DisableSizeDepthCoupling, want)
		}
	}
}

func TestConfigFromSpecRejectsBadSpec(t *testing.T) {
	res, err := core.GenerateImage(core.Config{NumFiles: 50, Seed: 5})
	if err != nil {
		t.Fatalf("GenerateImage: %v", err)
	}
	bad := res.Image.Spec
	bad.TreeShape = "spiral"
	if _, err := core.ConfigFromSpec(bad); err == nil {
		t.Error("expected error for unknown tree shape")
	}
	empty := res.Image.Spec
	empty.NumFiles = 0
	empty.FSSizeBytes = 0
	if _, err := core.ConfigFromSpec(empty); err == nil {
		t.Error("expected error for a spec without counts")
	}
}
