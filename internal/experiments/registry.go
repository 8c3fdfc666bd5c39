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
	"sort"
	"strings"

	"repro/internal/netsim"
)

// Params carries the CLI-level knobs a registered scenario set
// understands. Zero values mean each experiment's default; every
// experiment reads only the fields that apply to it (mirroring the
// sdtbench flags).
type Params struct {
	// Ranks is the MPI rank count (table4).
	Ranks int
	// Reps is the repetition count (fig11 pingpongs, fig13 rounds).
	Reps int
	// Bytes is the message size (fig13, active routing).
	Bytes int
	// Zoo limits the Topology-Zoo subset (table2; 0 = all 261).
	Zoo int
	// Duration is the simulated measurement window (fig12).
	Duration netsim.Time
	// Workers fans sweep experiments out one simulation per worker
	// (0 = all cores, 1 = serial).
	Workers int
	// Seed drives the loadgen schedules (0 = 1). Equal seeds rerun
	// byte-identical sweeps.
	Seed int64
	// Flows is the loadgen flow count per grid cell (0 = each
	// experiment's default).
	Flows int
	// Load is the loadgen-incast victim load factor in (0, 1]
	// (0 = 0.8).
	Load float64
	// Faults overrides faults-sweep's fault-count axis (0 = the
	// default {1, 2, 4} grid).
	Faults int
	// MTBF overrides faults-flap's MTBF axis (0 = the default
	// {1, 2, 4, 8} ms grid; MTTR follows as MTBF/4).
	MTBF netsim.Time
	// Reconfig selects reconfig-under-load's transition target:
	// "dragonfly" (the default) or "torus".
	Reconfig string
	// CC restricts cc-shootout to one congestion-control policy
	// (netsim.CCPolicies; "" = all policies).
	CC string
}

// Runner executes one registered scenario set. It has two sinks, one
// per kind of number the paper reports. w receives the simulated
// tables: bytes that are a pure function of (scenario, params, seed),
// identical on every host and at any worker count — what the goldens
// pin and what sdtd caches under the spec hash. measured receives what
// this host's clock measured (fig13's and table4's simulator
// evaluation time, loadgen-sweep-xl's wall column and packet-vs-flow
// speedup); most sets write nothing to it. sdtbench passes os.Stdout
// for both; callers that only want the reproducible half pass
// io.Discard. Cancellation propagates into the engine loop of every
// simulation the runner starts.
type Runner func(ctx context.Context, p Params, w, measured io.Writer) error

// Field is one machine-readable parameter a scenario set reads: its
// wire name (the JobSpec JSON key; the sdtbench flag has the same name
// except -dur, -mtbf and -parallel for dur_ms, mtbf_ms and workers),
// its type, and the default the experiment applies when the field is
// zero. Registered schemas feed `sdtbench -list -json` and the
// service's /v1/scenarios listing, so clients can discover a set's
// knobs without reading code.
type Field struct {
	Name    string `json:"name"`
	Type    string `json:"type"`
	Default string `json:"default"`
	Desc    string `json:"desc,omitempty"`
}

// The canonical field descriptors: every registration reuses these so
// the same knob carries the same name/type everywhere. Defaults mirror
// the Params documentation (and the sdtbench flag defaults where the
// experiment defers to the CLI).
var (
	FieldRanks    = Field{"ranks", "int", "16", "MPI rank count"}
	FieldReps     = Field{"reps", "int", "8", "repetitions (pingpongs / alltoall rounds)"}
	FieldBytes    = Field{"bytes", "int", "262144", "message size in bytes"}
	FieldZoo      = Field{"zoo", "int", "0", "Topology-Zoo subset size (0 = all 261)"}
	FieldDur      = Field{"dur_ms", "float64", "1000", "simulated measurement window in ms"}
	FieldWorkers  = Field{"workers", "int", "1", "sweep fan-out, one simulation per worker (0 = all cores)"}
	FieldSeed     = Field{"seed", "int64", "1", "loadgen schedule seed (equal seeds rerun byte-identical)"}
	FieldFlows    = Field{"flows", "int", "0", "loadgen flows per grid cell (0 = experiment default)"}
	FieldLoad     = Field{"load", "float64", "0.8", "loadgen victim load factor in (0, 1]"}
	FieldFaults   = Field{"faults", "int", "0", "link-failure count per cell (0 = the {1,2,4} grid)"}
	FieldMTBF     = Field{"mtbf_ms", "float64", "0", "link MTBF in ms, MTTR = MTBF/4 (0 = the {1,2,4,8} ms grid)"}
	FieldReconfig = Field{"reconfig", "string", "dragonfly", "transition target topology: dragonfly|torus"}
	FieldCC       = Field{"cc", "string", "", "congestion-control policy: dcqcn|timely|pfabric (empty = all)"}
)

// Entry is one registered scenario set.
type Entry struct {
	// Name is the lookup key (the sdtbench -exp value).
	Name string
	// Desc is a one-line description for CLI listings.
	Desc string
	// Run executes the scenario set.
	Run Runner
	// Schema lists the parameters this set reads (empty = the set is
	// parameter-free; Workers-style execution knobs are listed too, even
	// though they never change simulated results).
	Schema []Field

	order int
}

var registry []Entry

// Register adds a scenario set under a presentation-order index, with
// the machine-readable schema of the Params fields the set reads.
// Duplicate names panic: the registry is wired at init time and a
// collision is a programming error.
func Register(order int, name, desc string, run Runner, schema ...Field) {
	for _, e := range registry {
		if e.Name == name {
			panic("experiments: duplicate registration of " + name)
		}
	}
	registry = append(registry, Entry{Name: name, Desc: desc, Run: run, Schema: schema, order: order})
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
