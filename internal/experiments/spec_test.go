package experiments

import (
	"encoding/json"
	"reflect"
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

func TestSpecParamsUnits(t *testing.T) {
	s := JobSpec{Scenario: "fig12", DurMs: 50, MTBFMs: 2.5}
	p := s.Params()
	if p.Duration != 50*netsim.Millisecond {
		t.Errorf("dur_ms 50 -> %v", p.Duration)
	}
	if want := netsim.Time(2.5 * float64(netsim.Millisecond)); p.MTBF != want {
		t.Errorf("mtbf_ms 2.5 -> %v want %v", p.MTBF, want)
	}
}

// TestSchemaRegistered pins that every registered scenario set carries
// a schema naming only canonical field descriptors, and guards the
// hand-kept knob lists until typed params land: the canonical Field*
// names are exactly JobSpec's JSON tags minus "scenario", and a spec
// that sets any one result field on a set whose Schema omits it is
// rejected — so a knob added to JobSpec and Field* but forgotten in
// Validate's name → is-zero table fails here.
func TestSchemaRegistered(t *testing.T) {
	canon := map[string]Field{}
	for _, f := range []Field{FieldRanks, FieldReps, FieldBytes, FieldZoo, FieldDur,
		FieldWorkers, FieldSeed, FieldFlows, FieldLoad, FieldFaults, FieldMTBF,
		FieldReconfig, FieldCC} {
		canon[f.Name] = f
	}
	for _, e := range All() {
		seen := map[string]bool{}
		for _, f := range e.Schema {
			c, ok := canon[f.Name]
			if !ok {
				t.Errorf("%s: schema field %q is not a canonical descriptor", e.Name, f.Name)
				continue
			}
			if f != c {
				t.Errorf("%s: schema field %q diverges from the canonical descriptor", e.Name, f.Name)
			}
			if seen[f.Name] {
				t.Errorf("%s: schema field %q repeated", e.Name, f.Name)
			}
			seen[f.Name] = true
		}
	}

	// field maps each JSON tag of JobSpec to its struct field index.
	field := map[string]int{}
	st := reflect.TypeOf(JobSpec{})
	for i := 0; i < st.NumField(); i++ {
		tag, _, _ := strings.Cut(st.Field(i).Tag.Get("json"), ",")
		if tag != "scenario" {
			field[tag] = i
		}
	}
	for name := range canon {
		if _, ok := field[name]; !ok {
			t.Errorf("canonical field %q is not a JobSpec JSON tag", name)
		}
	}
	for tag := range field {
		if _, ok := canon[tag]; !ok {
			t.Errorf("JobSpec field %q has no canonical Field descriptor", tag)
		}
	}

	// table1 reads nothing, so every result field is foreign to it.
	const bare = "table1"
	if e, ok := Lookup(bare); !ok || len(e.Schema) != 0 {
		t.Fatalf("%s must be registered with an empty schema", bare)
	}
	for name, i := range field {
		if name == FieldWorkers.Name {
			continue // an execution knob, accepted on every set
		}
		spec := JobSpec{Scenario: bare}
		v := reflect.ValueOf(&spec).Elem().Field(i)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(1)
		case reflect.Float64:
			v.SetFloat(0.5)
		case reflect.String:
			// A value every value check accepts, so only the schema
			// check can refuse it.
			v.SetString(map[string]string{FieldReconfig.Name: "torus", FieldCC.Name: netsim.CCDCQCN}[name])
		default:
			t.Fatalf("JobSpec field %q has kind %s; teach this test to set it", name, v.Kind())
		}
		err := spec.Validate()
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(name)) {
			t.Errorf("%s with only %q set: err = %v, want a rejection naming the field", bare, name, err)
		}
	}
}
