package experiments

// The scenario registry: every figure/table registers itself here as a
// named scenario set, so CLIs (cmd/sdtbench), benchmarks, and
// downstream callers drive the paper's whole evaluation through one
// lookup instead of hand-wired per-figure plumbing. Registration
// happens in each experiment file's init; All returns entries in the
// paper's presentation order.

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// Runner executes one registered scenario set. s arrives resolved (see
// Entry.Run): Scenario is the set's name, every knob its schema lists
// carries a value, every other knob is zero, and s has passed Validate.
// It has two sinks, one per kind of number the paper reports. w
// receives the simulated tables: bytes that are a pure function of the
// spec, identical on every host and at any worker count — what the
// goldens pin and what sdtd caches under the spec hash. measured
// receives what this host's clock measured (fig13's and table4's
// simulator evaluation time, loadgen-sweep-xl's wall column and
// packet-vs-flow speedup); most sets write nothing to it. sdtbench
// passes os.Stdout for both; callers that only want the reproducible
// half pass io.Discard. Cancellation propagates into the engine loop of
// every simulation the runner starts.
type Runner func(ctx context.Context, s JobSpec, w, measured io.Writer) error

// Field is one knob in a set's schema: its wire name (the JobSpec JSON
// key; the sdtbench flag has the same name except -dur, -mtbf and
// -parallel for dur_ms, mtbf_ms and workers), its Go type, the set's
// default written as on the command line, and a description. Default is
// the only place a set's default lives: a zero knob takes it before the
// runner sees the spec and before the spec is hashed, and `sdtbench
// -list -json` and sdtd's /v1/scenarios publish it, so what a client
// reads is what runs.
type Field struct {
	Name    string `json:"name"`
	Type    string `json:"type"`
	Default string `json:"default"`
	Desc    string `json:"desc,omitempty"`
}

// Knob returns the schema field for JobSpec knob name with the set's
// default def. A name JobSpec lacks or a default that does not parse as
// the knob's type panics: schemas are built at init, so either is a
// programming error.
func Knob(name, def string) Field {
	var s JobSpec
	if err := s.Set(name, def); err != nil {
		panic("experiments: " + err.Error())
	}
	f := knobs[slices.IndexFunc(knobs, func(f Field) bool { return f.Name == name })]
	f.Default = def
	return f
}

// The two knobs most sets read, with the default every set gives them.
var (
	seedField    = Knob("seed", "1")
	workersField = Knob(knobWorkers, "0")
)

// Entry is one registered scenario set. Its JSON encoding is the
// listing document: `sdtbench -list -json` and sdtd's /v1/scenarios
// both encode All().
type Entry struct {
	// Name is the lookup key (the sdtbench -exp value).
	Name string `json:"name"`
	// Desc is a one-line description for CLI listings.
	Desc string `json:"desc"`
	// Schema lists the knobs this set reads, each with the set's default
	// (empty = the set is parameter-free). workers is listed where the
	// set fans out, though it never changes a simulated byte.
	Schema []Field `json:"params,omitempty"`

	run   Runner
	order int
}

// Run executes the set with the knobs of s as the set reads them: the
// scenario name is the set's, knobs outside its schema are dropped
// (sdtbench hands every set the same flags), and zero knobs take their
// schema default. The resolved spec must pass the checks Validate
// applies before the runner sees it.
func (e Entry) Run(ctx context.Context, s JobSpec, w, measured io.Writer) error {
	in := s
	s = JobSpec{Scenario: e.Name}
	for _, f := range e.Schema {
		s.knob(f.Name).Set(in.knob(f.Name))
	}
	s = e.withDefaults(s)
	if err := e.validate(s); err != nil {
		return err
	}
	return e.run(ctx, s, w, measured)
}

// withDefaults gives every zero knob e's schema lists its default.
func (e Entry) withDefaults(s JobSpec) JobSpec {
	for _, f := range e.Schema {
		if s.knob(f.Name).IsZero() {
			s.Set(f.Name, f.Default) // Knob checked that it parses
		}
	}
	return s
}

var registry []Entry

// table is a scenario set's result: it prints its simulated tables.
type table interface{ Format(io.Writer) }

// tableSet adapts a set's entry point to a Runner: the result's Format
// goes to w and, when the result also measured this host's clock, its
// formatMeasured goes to the measured sink.
func tableSet[R table](run func(context.Context, JobSpec) (R, error)) Runner {
	return func(ctx context.Context, s JobSpec, w, measured io.Writer) error {
		r, err := run(ctx, s)
		if err != nil {
			return err
		}
		r.Format(w)
		if m, ok := any(r).(interface{ formatMeasured(io.Writer, int) }); ok {
			m.formatMeasured(measured, s.Workers)
		}
		return nil
	}
}

// Register adds a scenario set under a presentation-order index, with
// the schema of the knobs the set reads (built with Knob). Every set in
// this package passes its entry point through tableSet. Duplicate
// names panic: the registry is wired at init time and a collision is a
// programming error.
func Register(order int, name, desc string, run Runner, schema ...Field) {
	for _, e := range registry {
		if e.Name == name {
			panic("experiments: duplicate registration of " + name)
		}
	}
	registry = append(registry, Entry{Name: name, Desc: desc, Schema: schema, run: run, order: order})
}

// Lookup finds a scenario set by name.
func Lookup(name string) (Entry, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Select resolves a comma-separated scenario-set list ("fig12,
// table4") to registry entries, in the order given. The literal
// "all" (alone or inside a list) expands to every registered set in
// presentation order; surrounding whitespace per name is ignored, and
// empty elements ("fig12,,fig13", a trailing comma) are errors just
// like unknown names — both report the registry's valid names so a
// typo at the CLI answers itself.
func Select(names string) ([]Entry, error) {
	var out []Entry
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "all" {
			out = append(out, All()...)
			continue
		}
		e, ok := Lookup(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown scenario set %q (valid: %s)",
				name, strings.Join(append(Names(), "all"), ", "))
		}
		out = append(out, e)
	}
	return out, nil
}

// All returns every registered scenario set in presentation order.
func All() []Entry {
	out := append([]Entry(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].order < out[j].order })
	return out
}

// Names returns the registered names in presentation order.
func Names() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.Name)
	}
	return out
}
