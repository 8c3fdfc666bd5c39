package experiments

import (
	"context"
	"encoding/json"
	"io"
	"strconv"
	"strings"
	"testing"

	"repro/internal/netsim"
)

// pinnedSpecHash is the recorded content hash of pinnedSpec below. It
// pins the canonical encoding across process restarts, Go versions,
// and machines: if this test ever fails without a deliberate
// specHashDomain bump, on-disk cache entries written by older builds
// would be misattributed. Removing an omitempty field from JobSpec
// must leave it unchanged too: specs that never set the field keep
// their cache keys.
const pinnedSpecHash = "5bc40ffc2d7e3e11c7609474b123ae69b83272ee3d93a4786967347f426d3707"

func pinnedSpec() JobSpec {
	return JobSpec{
		Scenario: "loadgen-sweep",
		Seed:     7,
		Flows:    48,
		Workers:  3, // excluded from the hash
	}
}

func TestSpecHashPinned(t *testing.T) {
	got := pinnedSpec().Hash()
	if got != pinnedSpecHash {
		t.Fatalf("canonical spec hash changed:\n got %s\nwant %s\n(bump specHashDomain if the encoding changed deliberately)", got, pinnedSpecHash)
	}
}

func TestSpecHashRoundTrip(t *testing.T) {
	s := pinnedSpec()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back JobSpec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("spec round-trip mutated the value: %+v vs %+v", back, s)
	}
	if back.Hash() != s.Hash() {
		t.Fatalf("spec round-trip changed the hash")
	}
}

func TestSpecHashFieldOrderIndependent(t *testing.T) {
	// The same spec spelled with fields in two different orders (and
	// with explicit zeros for omitted fields) must hash identically:
	// the hash covers the canonical re-serialization, not the input.
	inputs := []string{
		`{"scenario":"loadgen-sweep","seed":7,"flows":48}`,
		`{"flows":48,"scenario":"loadgen-sweep","seed":7}`,
		`{"seed":7,"scenario":"loadgen-sweep","ranks":0,"flows":48,"load":0}`,
	}
	var want string
	for i, in := range inputs {
		var s JobSpec
		if err := json.Unmarshal([]byte(in), &s); err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		h := s.Hash()
		if i == 0 {
			want = h
		} else if h != want {
			t.Errorf("input %d hashed to %s, want %s", i, h, want)
		}
	}
}

func TestSpecHashDistinguishesResults(t *testing.T) {
	base := pinnedSpec()
	seen := map[string]string{base.Hash(): "base"}
	for name, mut := range map[string]func(*JobSpec){
		"seed":     func(s *JobSpec) { s.Seed = 8 },
		"flows":    func(s *JobSpec) { s.Flows = 96 },
		"scenario": func(s *JobSpec) { s.Scenario = "loadgen-incast" },
		"load":     func(s *JobSpec) { s.Load = 0.5 },
		"dur":      func(s *JobSpec) { s.DurMs = 50 },
		"cc":       func(s *JobSpec) { s.CC = "timely" },
	} {
		s := base
		mut(&s)
		h := s.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("mutating %s collided with %s", name, prev)
		}
		seen[h] = name
	}
}

func TestSpecHashNormalization(t *testing.T) {
	// Workers never changes simulated results (golden-pinned), so it
	// must not split the cache; Seed 0 is documented as 1 everywhere.
	base := pinnedSpec()
	w := base
	w.Workers = 0
	if w.Hash() != base.Hash() {
		t.Errorf("workers split the cache key")
	}
	zero, one := base, base
	zero.Seed, one.Seed = 0, 1
	if zero.Hash() != one.Hash() {
		t.Errorf("seed 0 and its documented default 1 hash differently")
	}
}

func TestSpecValidate(t *testing.T) {
	for name, s := range map[string]JobSpec{
		"pinned":             pinnedSpec(),
		"workers everywhere": {Scenario: "table1", Workers: 4},
		"reconfig target":    {Scenario: "reconfig-under-load", Reconfig: "torus"},
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s spec rejected: %v", name, err)
		}
	}
	// want is what the rejection must say: an unread field is named
	// together with the fields the set does read.
	for name, tc := range map[string]struct {
		spec JobSpec
		want []string
	}{
		"empty":        {spec: JobSpec{}},
		"unknown":      {spec: JobSpec{Scenario: "no-such-set"}},
		"negative":     {spec: JobSpec{Scenario: "fig12", Reps: -1}},
		"load>1":       {spec: JobSpec{Scenario: "loadgen-incast", Load: 1.5}},
		"bad cc":       {spec: JobSpec{Scenario: "cc-shootout", CC: "bbr"}},
		"unread field": {spec: JobSpec{Scenario: "fig12", Ranks: 5}, want: []string{`"ranks"`, "dur_ms, workers"}},
		"bad reconfig": {spec: JobSpec{Scenario: "reconfig-under-load", Reconfig: "ring"}, want: []string{`"ring"`, "dragonfly|torus"}},
		// Durations that do not convert to a positive netsim.Time would
		// run the default grid under a non-default hash.
		"mtbf overflows": {spec: JobSpec{Scenario: "faults-flap", MTBFMs: 1e13}, want: []string{"mtbf_ms"}},
		"mtbf sub-ps":    {spec: JobSpec{Scenario: "faults-flap", MTBFMs: 1e-12}, want: []string{"mtbf_ms"}},
		"dur overflows":  {spec: JobSpec{Scenario: "fig12", DurMs: 1e13}, want: []string{"dur_ms"}},
	} {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("%s spec accepted", name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: rejection %q does not mention %s", name, err, w)
			}
		}
	}
}

func TestSpecDurationUnits(t *testing.T) {
	s := JobSpec{Scenario: "fig12", DurMs: 50, MTBFMs: 2.5}
	if got := s.dur(); got != 50*netsim.Millisecond {
		t.Errorf("dur_ms 50 -> %v", got)
	}
	if want := netsim.Time(2.5 * float64(netsim.Millisecond)); s.mtbf() != want {
		t.Errorf("mtbf_ms 2.5 -> %v want %v", s.mtbf(), want)
	}
}

// TestSchemaRegistered pins that every registered schema lists JobSpec
// knobs, each once, with the knob's type and description and defaults
// the set itself accepts; and that a spec setting any one result knob
// on a set whose schema omits it is rejected by name.
func TestSchemaRegistered(t *testing.T) {
	byName := map[string]Field{}
	for _, k := range Knobs() {
		byName[k.Name] = k
	}
	for _, e := range All() {
		seen := map[string]bool{}
		for _, f := range e.Schema {
			k, ok := byName[f.Name]
			switch {
			case !ok:
				t.Errorf("%s: schema field %q is not a JobSpec knob", e.Name, f.Name)
			case f.Type != k.Type || f.Desc != k.Desc:
				t.Errorf("%s: schema field %+v diverges from the knob %+v", e.Name, f, k)
			case seen[f.Name]:
				t.Errorf("%s: schema field %q repeated", e.Name, f.Name)
			}
			seen[f.Name] = true
		}
		if err := e.validate(e.withDefaults(JobSpec{Scenario: e.Name})); err != nil {
			t.Errorf("%s: its own defaults fail validation: %v", e.Name, err)
		}
	}

	// table1 reads nothing, so every result knob is foreign to it.
	const bare = "table1"
	if e, ok := Lookup(bare); !ok || len(e.Schema) != 0 {
		t.Fatalf("%s must be registered with an empty schema", bare)
	}
	for _, k := range Knobs() {
		if k.Name == knobWorkers {
			continue // an execution knob, accepted on every set
		}
		// A value every value check accepts, so only the schema check
		// can refuse it.
		val := map[string]string{"load": "0.5", "reconfig": "torus", "cc": netsim.CCDCQCN}[k.Name]
		if val == "" {
			val = "1"
		}
		spec := JobSpec{Scenario: bare}
		if err := spec.Set(k.Name, val); err != nil {
			t.Fatal(err)
		}
		err := spec.Validate()
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(k.Name)) {
			t.Errorf("%s with only %q set: err = %v, want a rejection naming the knob", bare, k.Name, err)
		}
	}
}

// TestZeroKnobsTakeSchemaDefaults pins that a set's schema holds its
// only defaults: leaving a knob zero and spelling out the schema default
// are the same job — one resolved spec, one cache key. fig13 is the set
// whose runner used to apply a default of its own (128 KiB messages)
// that its published schema (262144) did not state.
func TestZeroKnobsTakeSchemaDefaults(t *testing.T) {
	for _, e := range All() {
		explicit := JobSpec{Scenario: e.Name}
		for _, f := range e.Schema {
			if err := explicit.Set(f.Name, f.Default); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
		}
		zero := JobSpec{Scenario: e.Name}
		if got := e.withDefaults(zero); got != explicit {
			t.Errorf("%s: zero knobs resolve to %+v, the schema says %+v", e.Name, got, explicit)
		}
		if zero.Hash() != explicit.Hash() {
			t.Errorf("%s: an omitted knob and its spelled-out default hash apart", e.Name)
		}
	}
	fig13, _ := Lookup("fig13")
	if got := fig13.withDefaults(JobSpec{Scenario: "fig13"}); got.Bytes != 256<<10 || got.Reps != 8 {
		t.Errorf("fig13 defaults: bytes %d reps %d, want 262144 and 8", got.Bytes, got.Reps)
	}
}

// TestEntryRunResolvesSpec pins what a runner receives: the set's name,
// its schema knobs with zero ones at their defaults, no other knob — and
// no call at all when the resolved spec fails validation.
func TestEntryRunResolvesSpec(t *testing.T) {
	var got *JobSpec
	e := Entry{
		Name:   "probe",
		Schema: []Field{seedField, Knob("flows", "96"), workersField},
		run: func(_ context.Context, s JobSpec, _, _ io.Writer) error {
			got = &s
			return nil
		},
	}
	in := JobSpec{Scenario: "other", Flows: 10, Ranks: 5, Workers: 3}
	if err := e.Run(t.Context(), in, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	if want := (JobSpec{Scenario: "probe", Seed: 1, Flows: 10, Workers: 3}); got == nil || *got != want {
		t.Fatalf("runner got %+v, want %+v", got, want)
	}
	got = nil
	if err := e.Run(t.Context(), JobSpec{Flows: -1}, io.Discard, io.Discard); err == nil || got != nil {
		t.Fatalf("negative flows: err %v, runner called %v", err, got != nil)
	}
}
