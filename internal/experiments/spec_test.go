package experiments

import (
	"encoding/json"
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
// a schema naming only canonical field descriptors, and that seeded
// sets declare their seed.
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
}
