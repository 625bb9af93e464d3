package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"stateless/internal/obs"
)

// span is one recorded interval around a call into the program. Spans of
// one operation share Run; Parent is the enclosing span's ID (0: none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Run     string `json:"run"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // IDs of the spans begun and not yet ended
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span nested in the innermost open one and returns its ID.
func (t *tracer) begin(run, name string) int {
	parent := 0
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: run, Name: name, StartNs: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open one, and returns
// its duration in seconds.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id-1]
	s.EndNs = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
	return float64(s.EndNs-s.StartNs) / 1e9
}

// do runs f inside a span named name and returns its seconds. On a nil
// tracer it runs f unrecorded and returns 0.
func (t *tracer) do(run, name string, f func()) float64 {
	if t == nil {
		f()
		return 0
	}
	id := t.begin(run, name)
	f()
	return t.end(id)
}

// write saves the spans as JSON to path.
func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracing is what a traced operation records into.
type tracing struct {
	tr  *tracer
	reg *obs.Registry
	run string
}

// span opens a span named name in the operation's run; calling the
// returned function closes it.
func (t *tracing) span(name string) func() {
	id := t.tr.begin(t.run, name)
	return func() { t.tr.end(id) }
}

// traced is the --trace 1 run: tracedBaselineOps untraced operations, then
// one traced operation at workers workers, from which the per-layer
// metrics come, and whatever extra traced calls the workload's layers
// need. Every span of the run nests in one root span. The spans are
// written to out.
func traced(b bench, workers int, out string) (result, error) {
	ops := measure(b, workers, 0, tracedBaselineOps)
	base := median(ops, func(s sample) float64 { return s.wall })
	refBase := median(ops, func(s sample) float64 { return s.refWall })

	tr := newTracer()
	root := tr.begin("trace", "perfbench.traced")
	reg := obs.NewRegistry()
	s := timeOp(b, workers, &tracing{tr: tr, reg: reg, run: fmt.Sprintf("op-workers%d", workers)})
	ops = append(ops, s)
	m := metrics{
		"tracing_overhead": s.wall / base,
		"op_s":             base,
		"reference_s":      refBase,
		"par.utilization":  s.cpu / (s.wall * float64(workers)),
	}
	ops = append(ops, b.layers(tr, s, reg, m)...)
	tr.end(root)
	if err := tr.write(out); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	return newResult(ops, perLayer, m), nil
}
