// Command impressionsvet is the determinism-contract checker. It runs the
// five project analyzers of internal/analysis (detclock, detmap, rngderive,
// errwrapsentinel, ctxflow) over every package of the module that contains
// the working directory, loaded from source:
//
//	impressionsvet
//
// Findings go to stderr as "file:line:col: message [analyzer]", and the
// exit code is 2 when there are any. The command takes no arguments: any
// argument or unknown flag exits 1, so exit 2 always means findings. -h
// lists the analyzers. `make lint` runs it; TestModuleIsClean runs the same
// analysis.CheckModule.
//
// The analyzers skip _test.go files; see the README "Determinism contract"
// section for the rules and the suppression annotation.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"impressions/internal/analysis"
)

func main() {
	fs := flag.NewFlagSet("impressionsvet", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: impressionsvet\n\nchecks every package of the module containing the working directory with:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(os.Args[1:]); errors.Is(err, flag.ErrHelp) {
		return
	} else if err != nil {
		os.Exit(1)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "impressionsvet: takes no arguments, got %q\n", fs.Args())
		os.Exit(1)
	}
	findings, _, err := analysis.CheckModule(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "impressionsvet:", err)
		os.Exit(1)
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		os.Exit(2)
	}
}
