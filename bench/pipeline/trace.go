package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer, made from this package. Spans of one
// workload share its name; Parent links a span to the one whose time
// contains it.
//
// Containment is real where an interface lets a wrapper sit at the boundary
// (the io.Writer under a sink) and where the harness runs the steps of a
// command one at a time (distrun's plan, workers, merge). Content and SHA-256
// live inside the sinks with no boundary to wrap, so there the passes are
// run by substitution, each adding one layer to the one before (no-op sink,
// TreeSink, sink with MetadataOnly, with content, with OnDigest), and each
// pass is the parent of the pass it extends: its self time is what the added
// layer costs.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: the workload's root, or a ceiling outside the budget
	Name     string `json:"name"`
	Workload string `json:"workload"`
	// Start and End are offsets from the tracer's epoch.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Count is the work the span did, in Unit.
	Count int64  `json:"count"`
	Unit  string `json:"unit"`
	// Derived marks a span whose duration was not read off one interval: time
	// accumulated by a wrapper over many calls, a phase time the program
	// reported, or the difference of two command runs.
	Derived bool `json:"derived,omitempty"`

	// inner is time a wrapper inside the span accumulated at a boundary
	// below it; it becomes a derived child span.
	inner time.Duration
	// note is appended to the span's work in the budget table.
	note string
	// aux is what the measurement wants kept with the span that is kept.
	aux any
}

func (s *span) seconds() float64 { return (s.End - s.Start).Seconds() }

// did records the work the span has done.
func (s *span) did(count int64, unit string) { s.Count, s.Unit = count, unit }

// tracer keeps every span in memory until the invocation ends.
type tracer struct {
	epoch time.Time
	spans []*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add keeps the span and gives it its id.
func (t *tracer) add(s *span) *span {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s
}

// measure times fn. The span is not kept until it is added, so a caller can
// repeat a short measurement and keep one.
func (t *tracer) measure(workload, name string, fn func(*span) error) (*span, error) {
	s := &span{Name: name, Workload: workload, Start: time.Since(t.epoch)}
	err := fn(s)
	s.End = time.Since(t.epoch)
	if err != nil {
		return s, fmt.Errorf("%s: %w", name, err)
	}
	return s, nil
}

// fromRun is a finished command as a span, not yet kept.
func (t *tracer) fromRun(workload, name string, r cliRun, count int64, unit string) *span {
	start := r.start.Sub(t.epoch)
	return &span{Name: name, Workload: workload, Start: start, End: start + seconds(r.wall), Count: count, Unit: unit}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// nest makes parent contain children.
func nest(parent *span, children ...*span) {
	for _, c := range children {
		c.Parent = parent.ID
	}
}

func (t *tracer) children(s *span) []*span {
	var out []*span
	for _, c := range t.spans {
		if c.Parent == s.ID {
			out = append(out, c)
		}
	}
	return out
}

// self is the span's duration minus its children's.
func (t *tracer) self(s *span) float64 {
	d := s.seconds()
	for _, c := range t.children(s) {
		d -= c.seconds()
	}
	return d
}

// budgetRow is one line of a workload's layer table.
type budgetRow struct {
	Span string `json:"span"`
	// Depth is the span's depth under the root; -1 marks a span outside the
	// budget (an isolated ceiling or a side measurement).
	Depth int     `json:"depth"`
	SpanS float64 `json:"span_s"`
	// SelfS is the span minus its children, and Share that as a share of the
	// root: the command's wall-clock. The root's own row is what no layer
	// accounts for.
	SelfS float64 `json:"self_s"`
	Share float64 `json:"share"`
	Work  string  `json:"work,omitempty"`
}

// budget is the workload's layer table: every span under root with its own
// time and that time's share of the command's wall-clock, then the spans
// outside the budget.
func (t *tracer) budget(root *span) []budgetRow {
	var rows []budgetRow
	var walk func(s *span, depth int)
	walk = func(s *span, depth int) {
		self := t.self(s)
		rows = append(rows, budgetRow{s.Name, depth, s.seconds(), self, self / root.seconds(), work(s)})
		for _, c := range t.children(s) {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	rows[0].Span = "unattributed (" + root.Name + ")"
	for _, s := range t.spans {
		if s.Workload == root.Workload && s.Parent == 0 && s != root {
			rows = append(rows, budgetRow{Span: s.Name, Depth: -1, SpanS: s.seconds(), Work: work(s)})
		}
	}
	return rows
}

func printBudget(w io.Writer, workload string, rows []budgetRow, open []string) {
	fmt.Fprintf(w, "\n%s: layer budget of one traced run (%.3f s)\n", workload, rows[0].SpanS)
	fmt.Fprintf(w, "  %-36s %10s %10s %7s  %s\n", "span", "span_s", "self_s", "share", "work")
	for i, r := range rows {
		if r.Depth < 0 {
			if rows[i-1].Depth >= 0 {
				fmt.Fprintf(w, "  outside the budget:\n")
			}
			fmt.Fprintf(w, "  %-36s %10.4f %10s %7s  %s\n", "  "+r.Span, r.SpanS, "", "", r.Work)
			continue
		}
		fmt.Fprintf(w, "  %-36s %10.4f %10.4f %6.1f%%  %s\n", strings.Repeat("  ", r.Depth)+r.Span, r.SpanS, r.SelfS, 100*r.Share, r.Work)
	}
	for _, reason := range open {
		fmt.Fprintf(w, "  BUDGET NOT CLOSED: %s\n", reason)
	}
}

func work(s *span) string {
	if s.Count == 0 || s.seconds() <= 0 {
		return ""
	}
	return fmt.Sprintf("%d %s, %.4g %s/s%s", s.Count, s.Unit, float64(s.Count)/s.seconds(), s.Unit, s.note)
}

// writeChrome writes the spans as Chrome trace-event JSON (Perfetto and
// chrome://tracing open it): one track per workload, complete events in
// microseconds, the span's id, parent and work in args.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	tracks := map[string]int{}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		tid, ok := tracks[s.Workload]
		if !ok {
			tid = len(tracks) + 1
			tracks[s.Workload] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": s.Workload}})
		}
		events = append(events, event{Name: s.Name, Cat: s.Workload, Ph: "X", Pid: 1, Tid: tid,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "workload": s.Workload, "count": s.Count, "unit": s.Unit, "derived": s.Derived}})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
