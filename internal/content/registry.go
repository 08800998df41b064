package content

import (
	"strings"

	"impressions/internal/stats"
)

// Registry maps file extensions to content generators and supplies the
// fallback generators for text-like and unknown extensions. A Registry is the
// "content policy" of an image: the Default registry mirrors the paper's
// default mode, while specialized registries reproduce the single-word,
// text-only, image-only and binary-only configurations of Figures 7 and 8.
type Registry struct {
	kind       Kind
	byExt      map[string]Generator
	textExts   map[string]bool
	textGen    Generator
	defaultGen Generator
}

// textExtensions are extensions treated as human-readable text by the
// default policy.
var textExtensions = []string{
	"txt", "htm", "html", "h", "cpp", "c", "log", "ini", "inf", "xml",
	"css", "js", "java", "py", "go", "sh", "md", "csv", "tex", "null",
}

// NewRegistry builds the content registry for the given policy kind.
func NewRegistry(kind Kind) *Registry {
	r := &Registry{kind: kind, byExt: map[string]Generator{}, textExts: map[string]bool{}}
	for _, e := range textExtensions {
		r.textExts[e] = true
	}
	switch kind {
	case KindTextSingleWord:
		gen := NewTextGenerator(NewSingleWordModel(""))
		r.textGen = gen
		r.defaultGen = gen
	case KindTextModel:
		gen := NewTextGenerator(NewHybridModel(0.2))
		r.textGen = gen
		r.defaultGen = gen
	case KindImage:
		gen := NewJPEG()
		r.textGen = gen
		r.defaultGen = gen
	case KindBinary:
		r.textGen = BinaryGenerator{}
		r.defaultGen = BinaryGenerator{}
	case KindZero:
		r.textGen = ZeroGenerator{}
		r.defaultGen = ZeroGenerator{}
	default: // KindDefault
		r.textGen = NewTextGenerator(NewHybridModel(0.2))
		r.defaultGen = BinaryGenerator{}
		r.Register(NewJPEG(), "jpg", "jpeg")
		r.Register(NewGIF(), "gif")
		r.Register(NewPNG(), "png")
		r.Register(NewMP3(), "mp3")
		r.Register(NewPDF(), "pdf")
		r.Register(NewHTML(), "htm", "html")
		r.Register(NewZIP(), "zip", "cab", "jar", "gz", "tar")
		r.Register(NewExecutable("exe"), "exe")
		r.Register(NewExecutable("dll"), "dll", "lib", "obj", "pdb", "sys")
		r.Register(NewMPEG(), "mpg", "mpeg", "avi", "wmv")
		r.Register(NewWAV(), "wav")
	}
	return r
}

// Register makes g the generator for the given extensions (lower case,
// without the leading dot), replacing the policy's choice for them. Call it
// before the registry is shared: lookups are not synchronized with it.
func (r *Registry) Register(g Generator, exts ...string) {
	for _, e := range exts {
		r.byExt[e] = g
	}
}

// Kind returns the registry's policy kind.
func (r *Registry) Kind() Kind { return r.kind }

// ForExtension returns the generator used for files with the given extension
// (without leading dot; "" or "null" means no extension).
func (r *Registry) ForExtension(ext string) Generator {
	ext = strings.ToLower(strings.TrimPrefix(ext, "."))
	if g, ok := r.byExt[ext]; ok {
		return g
	}
	if r.textExts[ext] || ext == "" {
		return r.textGen
	}
	return r.defaultGen
}

// Generate writes size bytes of content appropriate for the extension.
func (r *Registry) Generate(w interface {
	Write(p []byte) (int, error)
}, ext string, size int64, rng *stats.RNG) error {
	return r.ForExtension(ext).Generate(w, size, rng)
}

// SetTextModel overrides the word model used for text-like files in the
// default policy (e.g. switching between single-word and hybrid models while
// keeping typed binary formats).
func (r *Registry) SetTextModel(model WordModel) {
	r.textGen = NewTextGenerator(model)
}

// IsTextExtension reports whether the policy treats the extension as
// human-readable text.
func (r *Registry) IsTextExtension(ext string) bool {
	ext = strings.ToLower(strings.TrimPrefix(ext, "."))
	return r.textExts[ext] || ext == ""
}
