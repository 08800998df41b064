package analysis_test

import (
	"strings"
	"testing"

	"impressions/internal/analysis"
	"impressions/internal/analysis/atest"
)

func TestDetClock(t *testing.T) {
	atest.Run(t, "testdata", []*analysis.Analyzer{analysis.DetClock},
		"detclockfix/internal/core",
		"detclockfix/internal/clock",
		"detclockfix/outer",
	)
}

// TestDetClockBareAnnotation asserts the hygiene tier directly: a bare
// (reason-less) annotation is its own finding AND fails to suppress the
// finding under it. This cannot be expressed as a want-comment because
// appending one to the annotation would give it a reason.
func TestDetClockBareAnnotation(t *testing.T) {
	l := analysis.NewFixtureLoader("testdata/src")
	p, err := l.Load("detclockfix/hygiene")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunPackage(p, []*analysis.Analyzer{analysis.DetClock})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		for _, d := range diags {
			t.Logf("  %s", d.String(l.Fset))
		}
		t.Fatalf("got %d findings, want 2 (hygiene + unsuppressed Getpid)", len(diags))
	}
	if !strings.Contains(diags[0].Message, "needs a reason") {
		t.Errorf("first finding should be the bare annotation, got: %s", diags[0].Message)
	}
	if !strings.Contains(diags[1].Message, "os.Getpid") {
		t.Errorf("second finding should be the unsuppressed Getpid, got: %s", diags[1].Message)
	}
}

func TestDetMap(t *testing.T) {
	atest.Run(t, "testdata", []*analysis.Analyzer{analysis.DetMap},
		"detmapfix/internal/fsimage",
	)
}

func TestRNGDerive(t *testing.T) {
	atest.Run(t, "testdata", []*analysis.Analyzer{analysis.RNGDerive},
		"rngfix",
		"rngfix/internal/stats",
	)
}

func TestErrWrapSentinel(t *testing.T) {
	atest.Run(t, "testdata", []*analysis.Analyzer{analysis.ErrWrapSentinel},
		"wrapfix",
		"wrapfix/plain",
	)
}

func TestCtxFlow(t *testing.T) {
	atest.Run(t, "testdata", []*analysis.Analyzer{analysis.CtxFlow},
		"ctxfix",
	)
}
