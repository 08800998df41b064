package search

import (
	"strings"

	"impressions/internal/content"
	"impressions/internal/disk"
	"impressions/internal/fsimage"
)

// Policy captures the indexing assumptions of a desktop-search engine — the
// exact cutoffs Figure 6 of the paper debunks.
type Policy struct {
	// Name identifies the engine ("beagle", "gdl").
	Name string
	// MaxDepth skips files deeper than this namespace depth (0 = unlimited).
	// GDL indexes only content less than 10 directories deep.
	MaxDepth int
	// MaxTextBytes skips text files larger than this many bytes
	// (0 = unlimited). GDL: 200 KB; Beagle: 5 MB.
	MaxTextBytes int64
	// MaxArchiveBytes skips archive files larger than this (Beagle: 10 MB).
	MaxArchiveBytes int64
	// MaxScriptBytes skips shell scripts larger than this (Beagle: 20 KB).
	MaxScriptBytes int64
	// IndexDirectories adds directory names to the index.
	IndexDirectories bool
	// PositionalPostings stores term positions (larger index, richer search).
	PositionalPostings bool
	// BinaryPreviewFraction is the fraction of a binary file's bytes stored
	// as a preview/metadata blob in the index (GDL stores previews; Beagle
	// does not).
	BinaryPreviewFraction float64
	// TextCache stores a snippet cache of every indexed text document
	// (Beagle's TextCache variant).
	TextCache bool
	// TextCacheBytesPerDoc is the snippet size stored per document when
	// TextCache is enabled.
	TextCacheBytesPerDoc int64
	// DisableFilters indexes only file attributes, never content (Beagle's
	// DisFilter variant).
	DisableFilters bool
	// Filters is the number of file-type filters the engine ships; files
	// whose extension has no filter get attribute-only indexing. Beagle
	// ships 52 filters, GDL supports fewer types.
	Filters int
	// InotifyWatchLimit models the kernel watch limit (8192 by default for
	// Beagle); when the directory count exceeds it, the engine falls back to
	// manually crawling directories, which costs extra time per directory.
	InotifyWatchLimit int
}

// BeaglePolicy returns the default Beagle-like policy.
func BeaglePolicy() Policy {
	return Policy{
		Name:                 "beagle",
		MaxTextBytes:         5 * 1024 * 1024,
		MaxArchiveBytes:      10 * 1024 * 1024,
		MaxScriptBytes:       20 * 1024,
		IndexDirectories:     true,
		PositionalPostings:   true,
		TextCacheBytesPerDoc: 512,
		Filters:              52,
		InotifyWatchLimit:    8192,
	}
}

// GDLPolicy returns the default Google-Desktop-for-Linux-like policy.
func GDLPolicy() Policy {
	return Policy{
		Name:                  "gdl",
		MaxDepth:              10,
		MaxTextBytes:          200 * 1024,
		IndexDirectories:      false,
		PositionalPostings:    false,
		BinaryPreviewFraction: 0.02,
		Filters:               24,
		InotifyWatchLimit:     8192,
	}
}

// Variant applies one of the Figure 8 Beagle build variants to a policy.
type Variant string

// Beagle variants evaluated in Figure 8.
const (
	VariantOriginal  Variant = "Original"
	VariantTextCache Variant = "TextCache"
	VariantDisDir    Variant = "DisDir"
	VariantDisFilter Variant = "DisFilter"
)

// Apply returns a copy of the policy with the variant's changes applied.
func (p Policy) Apply(v Variant) Policy {
	out := p
	switch v {
	case VariantTextCache:
		out.TextCache = true
	case VariantDisDir:
		out.IndexDirectories = false
	case VariantDisFilter:
		out.DisableFilters = true
	}
	return out
}

// FileClass is the coarse content category a policy decision depends on.
type FileClass int

// File classes relevant to the documented cutoffs.
const (
	ClassText FileClass = iota
	ClassArchive
	ClassScript
	ClassImage
	ClassBinary
)

// Classify maps an extension to its file class.
func Classify(ext string) FileClass {
	switch strings.ToLower(ext) {
	case "txt", "htm", "html", "h", "cpp", "c", "log", "ini", "inf", "xml",
		"css", "js", "java", "py", "md", "csv", "tex", "doc", "":
		return ClassText
	case "zip", "cab", "gz", "tar", "jar", "rar", "7z", "iso":
		return ClassArchive
	case "sh", "bash", "csh", "pl":
		return ClassScript
	case "jpg", "jpeg", "gif", "png", "bmp", "tif":
		return ClassImage
	default:
		return ClassBinary
	}
}

// SkipReason explains why a file was not content-indexed.
type SkipReason string

// Skip reasons reported by Engine.Index.
const (
	SkipNone       SkipReason = ""
	SkipTooDeep    SkipReason = "deeper than MaxDepth"
	SkipTextTooBig SkipReason = "text file above MaxTextBytes"
	SkipArchiveBig SkipReason = "archive above MaxArchiveBytes"
	SkipScriptBig  SkipReason = "script above MaxScriptBytes"
	SkipNoFilter   SkipReason = "no filter for extension"
	SkipFiltersOff SkipReason = "filters disabled"
)

// Decide returns whether the policy content-indexes a file of the given
// class, size and depth, and the reason when it does not. Attribute-only
// indexing still happens for skipped files; Decide only governs content.
func (p Policy) Decide(class FileClass, size int64, depth int) (bool, SkipReason) {
	if p.DisableFilters {
		return false, SkipFiltersOff
	}
	if p.MaxDepth > 0 && depth > p.MaxDepth {
		return false, SkipTooDeep
	}
	switch class {
	case ClassText:
		if p.MaxTextBytes > 0 && size > p.MaxTextBytes {
			return false, SkipTextTooBig
		}
	case ClassArchive:
		if p.MaxArchiveBytes > 0 && size > p.MaxArchiveBytes {
			return false, SkipArchiveBig
		}
	case ClassScript:
		if p.MaxScriptBytes > 0 && size > p.MaxScriptBytes {
			return false, SkipScriptBig
		}
	}
	return true, SkipNone
}

// IndexResult reports the outcome of crawling and indexing one image.
type IndexResult struct {
	// Engine is the policy name.
	Engine string
	// Variant is the applied build variant (empty for the base policy).
	Variant Variant
	// IndexedFiles is the number of files whose content was indexed.
	IndexedFiles int
	// AttributeOnlyFiles is the number of files indexed by attributes only.
	AttributeOnlyFiles int
	// SkippedByReason counts content skips per reason.
	SkippedByReason map[SkipReason]int
	// IndexBytes is the estimated index size in bytes.
	IndexBytes int64
	// TextCacheBytes is the size of the stored snippet cache.
	TextCacheBytes int64
	// FSBytes is the total size of the crawled image.
	FSBytes int64
	// TimeMs is the simulated indexing time in milliseconds.
	TimeMs float64
	// CrawledDirs is the number of directories visited.
	CrawledDirs int
	// ManualCrawl is true when the inotify watch limit was exceeded and the
	// engine fell back to manual crawling.
	ManualCrawl bool
	// Terms is the number of distinct terms in the index.
	Terms int
}

// IndexRatio returns index size divided by file-system size, the metric
// Figure 7 plots.
func (r IndexResult) IndexRatio() float64 {
	if r.FSBytes == 0 {
		return 0
	}
	return float64(r.IndexBytes) / float64(r.FSBytes)
}

// Engine crawls images and builds indexes under a Policy.
type Engine struct {
	policy  Policy
	variant Variant
	cost    disk.CostModel
	// cpuPerByteMs is the CPU cost of filtering/tokenizing one content byte.
	cpuPerByteMs float64
	// perFileOverheadMs is the fixed cost of opening and dispatching a file.
	perFileOverheadMs float64
	// perDirOverheadMs is the cost of crawling one directory manually.
	perDirOverheadMs float64
}

// NewEngine returns an engine for the policy.
func NewEngine(policy Policy) *Engine {
	return &Engine{
		policy:            policy,
		cost:              disk.DefaultCostModel(),
		cpuPerByteMs:      0.000004,
		perFileOverheadMs: 0.35,
		perDirOverheadMs:  0.6,
	}
}

// NewEngineVariant returns an engine with a Figure 8 variant applied.
func NewEngineVariant(policy Policy, v Variant) *Engine {
	e := NewEngine(policy.Apply(v))
	e.variant = v
	return e
}

// Policy returns the engine's (possibly variant-modified) policy.
func (e *Engine) Policy() Policy { return e.policy }

// Index crawls the image, generating content on the fly with the registry and
// indexing it according to the policy. Each file's text is drawn from its
// stream in fsimage.ContentStreams under contentSeed, so with the seed and
// registry the image was (or would be) materialized with, the indexed content
// is the content a real crawl would see, whatever the engine or variant.
func (e *Engine) Index(img *fsimage.Image, registry *content.Registry, contentSeed int64) IndexResult {
	if registry == nil {
		registry = content.NewRegistry(content.KindDefault)
	}
	res := IndexResult{
		Engine:          e.policy.Name,
		Variant:         e.variant,
		SkippedByReason: map[SkipReason]int{},
		FSBytes:         img.TotalBytes(),
	}
	ix := NewInvertedIndex(e.policy.PositionalPostings)
	streams := fsimage.NewContentStreams(contentSeed)
	// One tokenizer serves every text document in the crawl; content
	// generators stream into it block-by-block from the shared scratch pool,
	// so per-file indexing allocates nothing beyond new distinct terms.
	tw := newTokenizingWriter(ix)

	// Crawl directories.
	res.CrawledDirs = img.DirCount()
	if e.policy.InotifyWatchLimit > 0 && img.DirCount() > e.policy.InotifyWatchLimit {
		res.ManualCrawl = true
		res.TimeMs += float64(img.DirCount()) * e.perDirOverheadMs
	} else {
		res.TimeMs += float64(img.DirCount()) * e.perDirOverheadMs * 0.25
	}
	if e.policy.IndexDirectories {
		for _, d := range img.Tree.Dirs {
			ix.AddDocument(int64(len(d.Name)) + 96)
			for _, tok := range strings.FieldsFunc(strings.ToLower(d.Name), func(r rune) bool {
				return !((r >= 'a' && r <= 'z') || (r >= '0' && r <= '9'))
			}) {
				ix.AddTerm(tok)
			}
		}
	}

	// Uniform content policies (every file filled with text, image or binary
	// data regardless of extension, as in Figures 7 and 8) are classified by
	// their actual content, mirroring the content sniffing real indexers do.
	classOverride := classForKind(registry.Kind())

	for _, f := range img.Files {
		class := Classify(f.Ext)
		if classOverride >= 0 {
			class = classOverride
		}
		ok, reason := e.policy.Decide(class, f.Size, f.Depth)
		// Every file gets attribute indexing (name + metadata).
		ix.AddDocument(int64(len(f.Name)) + 96)
		res.TimeMs += e.perFileOverheadMs
		if !ok {
			res.AttributeOnlyFiles++
			res.SkippedByReason[reason]++
			continue
		}
		// Filter availability: extensions beyond the shipped filter count get
		// attribute-only treatment. Model: the common classes always have
		// filters; random three-character extensions only do on engines with
		// a large filter set. Content-sniffed classes (uniform policies) skip
		// this check because the engine knows what the bytes are.
		if classOverride < 0 && class == ClassBinary && !knownBinaryExtension(f.Ext) && e.policy.Filters < 40 {
			res.AttributeOnlyFiles++
			res.SkippedByReason[SkipNoFilter]++
			continue
		}
		res.IndexedFiles++

		switch class {
		case ClassText, ClassScript:
			tw.reset()
			gen := registry.ForExtension(f.Ext)
			if err := gen.Generate(tw, f.Size, streams.File(f.ID)); err == nil {
				tw.Flush()
			}
			res.TimeMs += e.cost.ReadBytesCostApprox(f.Size) + float64(f.Size)*e.cpuPerByteMs
			if e.policy.TextCache {
				// Beagle's TextCache stores a compressed copy of the document
				// text for snippet display: roughly a third of the original
				// bytes, with a small floor per document.
				snippet := int64(float64(f.Size) * 0.3)
				if min := e.policy.TextCacheBytesPerDoc; snippet < min {
					snippet = min
				}
				if snippet > f.Size {
					snippet = f.Size
				}
				ix.AddCache(snippet)
				res.TimeMs += float64(snippet) * e.cpuPerByteMs * 2
			}
		case ClassImage, ClassBinary, ClassArchive:
			// Extract embedded metadata; optionally store a preview blob.
			meta := int64(256)
			if meta > f.Size {
				meta = f.Size
			}
			ix.AddDocument(meta)
			if e.policy.BinaryPreviewFraction > 0 {
				preview := int64(float64(f.Size) * e.policy.BinaryPreviewFraction)
				ix.AddCache(preview)
				res.TimeMs += float64(preview) * e.cpuPerByteMs
			}
			// Binary filters read the head of the file, not all of it.
			readBytes := f.Size
			if readBytes > 128*1024 {
				readBytes = 128 * 1024
			}
			res.TimeMs += e.cost.ReadBytesCostApprox(readBytes) + float64(readBytes)*e.cpuPerByteMs
		}
	}
	res.IndexBytes = ix.SizeBytes()
	res.TextCacheBytes = ix.cacheBytes
	res.Terms = ix.Terms()
	return res
}

// classForKind maps a uniform content policy to the file class every file
// effectively has; -1 means "classify by extension" (the default policy).
func classForKind(kind content.Kind) FileClass {
	switch kind {
	case content.KindTextSingleWord, content.KindTextModel:
		return ClassText
	case content.KindImage:
		return ClassImage
	case content.KindBinary, content.KindZero:
		return ClassBinary
	default:
		return -1
	}
}

// knownBinaryExtension reports whether the binary extension is one of the
// common formats every engine ships a filter for.
func knownBinaryExtension(ext string) bool {
	switch strings.ToLower(ext) {
	case "pdf", "mp3", "wav", "mpg", "mpeg", "avi", "dll", "exe", "lib", "obj", "pdb", "sys", "doc":
		return true
	default:
		return false
	}
}
