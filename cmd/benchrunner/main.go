// Command benchrunner regenerates the paper's tables and figures using the
// experiment harness in internal/bench. Each experiment prints the same rows
// or series the paper reports, so its output can be compared side by side
// with the published results (see EXPERIMENTS.md).
//
// Usage:
//
//	benchrunner -list
//	benchrunner -exp fig1
//	benchrunner -all -quick
//	benchrunner -all -out results.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"impressions/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchrunner", flag.ContinueOnError)
	var (
		expFlag    = fs.String("exp", "", "run a single experiment (see -list)")
		allFlag    = fs.Bool("all", false, "run every experiment")
		listFlag   = fs.Bool("list", false, "list available experiments")
		quickFlag  = fs.Bool("quick", false, "run at reduced scale (seconds instead of minutes)")
		seedFlag   = fs.Int64("seed", 0, "master random seed (0 = default)")
		trialsFlag = fs.Int("trials", 0, "trial count for averaged experiments (0 = experiment default)")
		outFlag    = fs.String("out", "", "also write output to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *listFlag {
		fmt.Fprintln(stdout, "available experiments:")
		for _, e := range bench.Registry() {
			fmt.Fprintf(stdout, "  %-8s %s\n", e.Name(), e.Title())
		}
		return nil
	}

	opts := bench.DefaultOptions()
	if *seedFlag != 0 {
		opts.Seed = *seedFlag
	}
	opts.Quick = *quickFlag
	opts.Trials = *trialsFlag

	var w io.Writer = stdout
	if *outFlag != "" {
		f, err := os.Create(*outFlag)
		if err != nil {
			return err
		}
		defer f.Close()
		w = io.MultiWriter(stdout, f)
	}

	switch {
	case *allFlag:
		return bench.RunAll(w, opts)
	case *expFlag != "":
		names := strings.Split(*expFlag, ",")
		for _, name := range names {
			e := bench.Lookup(name)
			if e == nil {
				return fmt.Errorf("unknown experiment %q (try -list)", name)
			}
			if err := bench.RunOne(w, e, opts); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("nothing to do: pass -exp <name>, -all, or -list")
	}
}
