package content

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"testing"

	"impressions/internal/stats"
)

// pinSeeds and pinSizes are what every generator pin folds: sizes from one
// byte to three blocks and a bit, straddling a draw boundary and the block
// edges on both sides.
var (
	pinSeeds = []int64{1, 7919, 424243}
	pinSizes = []int64{1, 7, 4095, blockSize - 1, blockSize + 1, 3*blockSize + 17}
)

// generatorPin hashes g's bytes for every pin seed and size, each from a
// fresh stream, followed by the stream's next draw, so a pin moves if either
// the bytes or the generator's RNG consumption move.
func generatorPin(t *testing.T, g Generator) string {
	t.Helper()
	h := sha256.New()
	for _, seed := range pinSeeds {
		for _, size := range pinSizes {
			rng := stats.NewRNG(seed)
			var cw CountingWriter
			if err := g.Generate(io.MultiWriter(h, &cw), size, rng); err != nil {
				t.Fatalf("%s seed %d size %d: %v", g.Name(), seed, size, err)
			}
			if cw.N != size {
				t.Fatalf("%s seed %d: generated %d bytes, want %d", g.Name(), seed, cw.N, size)
			}
			h.Write(binary.LittleEndian.AppendUint64(nil, rng.Uint64()))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorPins pins the bytes of every built-in generator. Content is
// part of the image a seed reproduces, so a pin moves only in a commit whose
// output is the new reference.
func TestGeneratorPins(t *testing.T) {
	cases := []struct {
		name string
		gen  Generator
		want string
	}{
		{"hybrid-tail0", NewTextGenerator(NewHybridModel(0)),
			"212a5393a4e9ecbbefe26bdeb20bebc6ec4b2050329268e61fe22a3568cb54e8"},
		{"hybrid-tail0.2", NewTextGenerator(NewHybridModel(0.2)),
			"0d6f268a96ead27a485533b505fe0396a5c4f010f1e47e42549bb68217fa059d"},
		{"hybrid-tail1", NewTextGenerator(NewHybridModel(1)),
			"6bd71ff2248fe8c94271de48275f238c5abd7c1a4ee7085ce4bab304c0d415a6"},
		{"single-word", NewTextGenerator(NewSingleWordModel("")),
			"efb8fc57deebd090e8a1742c40db9580a926b4b243b768abd252c4f8b06b4012"},
		{"word-length", NewTextGenerator(NewLengthModel()),
			"a22a8be24706c7e7f480c460850793935fb87ba5e68d01f2f234274910ff5e17"},
		{"word-popularity", NewTextGenerator(NewPopularityModel(1)),
			"24c51aafe227368000da43d7a745f7fdf2ba19f6683232e7969c3ec6ab1d710f"},
		{"binary", BinaryGenerator{},
			"f3b243fde9892d8d1b64b59b2f3d90474ce76cd49fcad8332813e8b2b511bc54"},
		{"jpg", NewJPEG(),
			"38f435e12a0a324cb6cdb736016619547fdc911a1ca8953bdf4ba05191cac3ff"},
		{"gif", NewGIF(),
			"735fe6677f72529140df2beb136459a0c0d18aad52304a77147f6dc0713a1c84"},
		{"png", NewPNG(),
			"5b77ab96dd5eda614d2341343ca8479827f31e0271d97401602cf1bdb1726bbb"},
		{"mp3", NewMP3(),
			"5f8b2c9cd7b0e6cbc83ab11908bd79544520140748749f0ed649e6d5fd38ffe6"},
		{"pdf", NewPDF(),
			"cd6d2927159f368d1ad1e7add317767d300a25162d4863a7de225d9deef7d58e"},
		{"htm", NewHTML(),
			"dc4baf0b36c4611f015df079949342a44d3409f6600155ff38a7002ae719e240"},
		{"zip", NewZIP(),
			"1869bc0c11796ad15114d8a64c114c3ab305b78ab266a08b8378a8fd36d19b99"},
		{"exe", NewExecutable("exe"),
			"01eb953776ef3da2aceadd9f6dc5ff0be2ac251e3c70d5041a1d14516a9ab3dd"},
		{"mpg", NewMPEG(),
			"6e2c832c0f7521f27c5eeb9dc73b2038d9416007fb63ba61b7a214d2c19f3963"},
		{"wav", NewWAV(),
			"6ba721762c749b14630b772ae5798a3bf749d37b4dc992d7a4cc932370901591"},
		{"zero", ZeroGenerator{},
			"483d8b5c249378b39d15b6bf70b50cc769b85f123b58e4e463c38dbbf5b7c602"},
	}
	for _, c := range cases {
		if got := generatorPin(t, c.gen); got != c.want {
			t.Errorf("%s: pin %s, want %s", c.name, got, c.want)
		}
	}
}
