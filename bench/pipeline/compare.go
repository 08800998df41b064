package main

import (
	"fmt"
	"io"
	"math"
)

// verdict judges one metric on one workload. While both sides' inter-quartile
// spread is within the bound, a median worse than the old one by more than
// the bound is a regression and one better by more than it is better. When
// either spread is wider than the bound the medians cannot tell "unchanged"
// from "changed by less than the noise", in either direction: the verdict is
// unresolved, unless the shift is past the bound and every new run reads on
// that side of every old one.
func verdict(m endToEnd, bound float64, old, new sample) string {
	sign := 1.0 // positive worse: the metric grew and lower is better
	if m.Better == "higher" {
		sign = -1
	}
	worse := sign * (new.Median - old.Median)
	limit := bound * math.Abs(old.Median)
	noisy := math.Max(old.spread(), new.spread()) > bound
	// apart says every new run is worse (dir > 0) or better (dir < 0) than
	// every old one.
	apart := func(dir float64) bool {
		if dir*sign > 0 {
			return new.Min > old.Max
		}
		return new.Max < old.Min
	}
	switch {
	case worse > limit && (!noisy || apart(1)):
		return "REGRESSION"
	case -worse > limit && (!noisy || apart(-1)):
		return "better"
	case noisy:
		return "unresolved"
	}
	return "ok"
}

// pooled is everything one result file holds at one seed and scale: the
// invocations' repetitions joined per workload and metric, so that drift
// between invocations shows as spread.
type pooled struct {
	invocations int
	reps        int
	samples     map[string]map[string]sample // workload -> metric -> joined repetitions
	order       []string                     // workloads as first seen
}

const invocationRow = "(invocation)"

func pool(f resultFile, seed int64, scale float64) pooled {
	p := pooled{samples: map[string]map[string]sample{}}
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	attempted, failed := map[string]int{}, map[string]int{}
	join := func(workload string, samples map[string]sample) {
		if values[workload] == nil {
			values[workload] = map[string][]float64{}
			p.order = append(p.order, workload)
		}
		for name, s := range samples {
			values[workload][name] = append(values[workload][name], s.Values...)
			units[name] = s.Unit
		}
	}
	for _, r := range f.Runs {
		if r.Seed != seed || r.Scale != scale {
			continue
		}
		p.invocations++
		p.reps += r.Reps
		join(invocationRow, r.Invocation)
		for _, w := range r.Workloads {
			join(w.Name, w.EndToEnd)
			attempted[w.Name] += w.Attempted
			failed[w.Name] += w.Failed
		}
	}
	for workload, metrics := range values {
		p.samples[workload] = map[string]sample{}
		for name, v := range metrics {
			p.samples[workload][name] = summarize(units[name], v)
		}
		// Failures are a ratio of counts, not a median of ratios.
		if n := attempted[workload]; n > 0 {
			p.samples[workload]["fail_ratio"] = summarize("ratio", []float64{float64(failed[workload]) / float64(n)})
		}
	}
	return p
}

// compareFiles prints, per workload and end-to-end metric, both medians with
// their quartiles and the ratio with its base, for every seed and scale the
// two files share; the invocations a file holds at one seed and scale are
// pooled. It reports whether anything regressed.
func compareFiles(w io.Writer, oldPath, newPath string) (regressed bool, err error) {
	oldFile, err := loadResults(oldPath)
	if err != nil {
		return false, err
	}
	newFile, err := loadResults(newPath)
	if err != nil {
		return false, err
	}
	type key struct {
		seed  int64
		scale float64
	}
	seen := map[key]bool{}
	matched := 0
	for _, r := range newFile.Runs {
		k := key{r.Seed, r.Scale}
		if seen[k] {
			continue
		}
		seen[k] = true
		o, n := pool(oldFile, k.seed, k.scale), pool(newFile, k.seed, k.scale)
		if o.invocations == 0 {
			continue
		}
		matched++
		fmt.Fprintf(w, "seed %d, scale %g: old = %s (%d invocations, %d sweeps), new = %s (%d invocations, %d sweeps)\n",
			k.seed, k.scale, oldPath, o.invocations, o.reps, newPath, n.invocations, n.reps)
		printHeader(w)
		for _, workload := range n.order {
			for _, m := range endToEndMetrics {
				a, okA := o.samples[workload][m.Name]
				b, okB := n.samples[workload][m.Name]
				if !okA || !okB {
					continue
				}
				bound := m.boundFor(workload)
				v := verdict(m, bound, a, b)
				regressed = regressed || v == "REGRESSION"
				ratio := "-"
				if a.Median != 0 {
					ratio = fmt.Sprintf("%.3f of %.5g %s", b.Median/a.Median, a.Median, a.Unit)
				}
				printRow(w, workload, m.Name, a, b, ratio, bound, v)
			}
		}
	}
	if matched == 0 {
		return false, fmt.Errorf("%s and %s share no run of the same seed and scale", oldPath, newPath)
	}
	return regressed, nil
}

// comparePairs judges an invocation made with -against: the other checkout is
// old, this one new, and run i of one was made back to back with run i of
// the other. What is judged is therefore the ratio within each pair, new over
// old, against a base of 1: the machine's drift, which moves both halves of a
// pair alike, cancels, and the spread that decides between a verdict and
// "unresolved" is that of the ratios. It reports whether anything regressed.
func comparePairs(w io.Writer, doc runDoc) (regressed bool) {
	fmt.Fprintf(w, "\nseed %d, scale %g: old = %s, new = this checkout, %d sweeps of pairs\n", doc.Seed, doc.Scale, doc.Against, doc.Reps)
	printHeader(w)
	for _, wd := range doc.Workloads {
		for _, m := range endToEndMetrics {
			a, okA := wd.Against.EndToEnd[m.Name]
			b, okB := wd.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			bound := m.boundFor(wd.Name)
			// fail_ratio is one number a side, and 0 when all is well: it has
			// no pairs to take a ratio in, and the sides are judged as they
			// stand.
			v, ratio := verdict(m, bound, a, b), "-"
			if m.Name != "fail_ratio" {
				ratios, ones := make([]float64, a.N), make([]float64, a.N)
				for i := range ratios {
					ratios[i], ones[i] = b.Values[i]/a.Values[i], 1
				}
				r := summarize("ratio", ratios)
				v = verdict(m, bound, summarize("ratio", ones), r)
				ratio = fmt.Sprintf("%.3f [%.3f, %.3f] in pairs", r.Median, r.Q1, r.Q3)
			}
			regressed = regressed || v == "REGRESSION"
			printRow(w, wd.Name, m.Name, a, b, ratio, bound, v)
		}
	}
	return regressed
}

func printHeader(w io.Writer) {
	fmt.Fprintf(w, "%-15s %-14s %-34s %-34s %-30s %6s  %s\n", "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "new / old (base)", "bound", "verdict")
}

func printRow(w io.Writer, workload, metric string, a, b sample, ratio string, bound float64, verdict string) {
	fmt.Fprintf(w, "%-15s %-14s %-34s %-34s %-30s %5.0f%%  %s\n", workload, metric, quartiles(a), quartiles(b), ratio, 100*bound, verdict)
}

func quartiles(s sample) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", s.Median, s.Q1, s.Q3)
}
