package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the layer's public function. Names are "layer.phase", the layer
// being the module's directory under internal/.
type span struct {
	ID     int
	Parent int // -1 for a root
	Cell   int // repetition the span belongs to
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; nothing is written until the run ends.
// It is single-goroutine, like the cells it observes.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span IDs
	cell  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Cell: t.cell, Name: name, Start: time.Since(t.epoch)})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	now := time.Since(t.epoch)
	n := len(t.open)
	if n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order", id))
	}
	t.open = t.open[:n-1]
	t.spans[id].End = now
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// spanTotals sums, per span name, the inclusive and the self time of
// the spans of one cell. A span's self time is its duration minus the
// durations of its direct children.
func spanTotals(spans []span, cell int) (incl, self map[string]time.Duration) {
	incl, self = map[string]time.Duration{}, map[string]time.Duration{}
	child := map[int]time.Duration{}
	for _, s := range spans {
		if s.Cell == cell && s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	for _, s := range spans {
		if s.Cell != cell {
			continue
		}
		incl[s.Name] += s.dur()
		self[s.Name] += s.dur() - child[s.ID]
	}
	return incl, self
}

// writeChromeTrace writes the spans as Chrome trace-event JSON
// (complete "X" events, microsecond timestamps, one track per cell),
// which Perfetto and chrome://tracing open directly.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		events = append(events, event{
			Name: s.Name, Cat: layer, Ph: "X", Ts: us(s.Start), Dur: us(s.dur()),
			Pid: 1, Tid: s.Cell, Args: map[string]int{"id": s.ID, "parent": s.Parent, "cell": s.Cell},
		})
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
