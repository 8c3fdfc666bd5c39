package experiments

// The canonical job spec: the wire-level description of one scenario
// execution — scenario name plus knobs — with a stable content hash.
// JobSpec is also the one knob list. A set's schema names the JobSpec
// fields it reads together with its defaults (registry.go); Validate,
// the hash and sdtbench's flags all walk the same fields.
//
// The hash is a sound cache key because every registered set's output
// is a byte-stable pure function of (scenario, knobs, seed): equal
// hashes imply byte-identical simulated results, and a Runner writes
// nothing else to the sink the service caches (host wall clock goes to
// its measured sink). Two normalisations widen hit rates without
// weakening that soundness:
//
//   - Workers is zeroed before hashing: the worker fan-out never
//     changes simulated results (the golden harness's parallel pass
//     pins this), so a 1-worker and an 8-worker submission of the same
//     scenario share a cache line.
//   - Every zero knob the set reads takes the set's schema default,
//     exactly as the runner will see it, so an omitted knob and its
//     spelled-out default (seed 0 and seed 1, say) share a cache line.
//
// Everything else hashes as written.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"repro/internal/netsim"
)

// JobSpec is the canonical description of one scenario-set execution,
// and the list of every knob a set can read. Field names and units
// mirror the sdtbench flags (durations in fractional milliseconds); a
// zero knob means the set's default, as the set's schema states it. The
// desc tag is the knob's description in schemas and flag usage.
type JobSpec struct {
	Scenario string  `json:"scenario"`
	Ranks    int     `json:"ranks,omitempty" desc:"MPI rank count"`
	Reps     int     `json:"reps,omitempty" desc:"repetitions (fig11 pingpongs in fives, fig13 alltoall rounds)"`
	Bytes    int     `json:"bytes,omitempty" desc:"message size in bytes"`
	Zoo      int     `json:"zoo,omitempty" desc:"Topology-Zoo subset size (0 = all 261)"`
	DurMs    float64 `json:"dur_ms,omitempty" desc:"simulated measurement window in ms"`
	Workers  int     `json:"workers,omitempty" desc:"sweep fan-out, one simulation per worker (0 = all cores)"`
	Seed     int64   `json:"seed,omitempty" desc:"loadgen schedule seed (equal seeds rerun byte-identical)"`
	Flows    int     `json:"flows,omitempty" desc:"loadgen flows per grid cell"`
	Load     float64 `json:"load,omitempty" desc:"loadgen victim load factor in (0, 1]"`
	Faults   int     `json:"faults,omitempty" desc:"link-failure count per cell (0 = the {1,2,4} grid)"`
	MTBFMs   float64 `json:"mtbf_ms,omitempty" desc:"link MTBF in ms, MTTR = MTBF/4 (0 = the {1,2,4,8} ms grid)"`
	Reconfig string  `json:"reconfig,omitempty" desc:"transition target topology: dragonfly|torus"`
	CC       string  `json:"cc,omitempty" desc:"congestion-control policy: dcqcn|timely|pfabric (empty = all)"`
}

// knobWorkers names the one execution knob: it sets the fan-out and
// never a simulated byte, so every set accepts it and the hash drops it.
const knobWorkers = "workers"

// knobs lists JobSpec's knobs — every field after Scenario — as schema
// fields without a default, in declaration order.
var knobs = func() []Field {
	t := reflect.TypeFor[JobSpec]()
	out := make([]Field, t.NumField()-1)
	for i := range out {
		f := t.Field(i + 1)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		out[i] = Field{Name: name, Type: f.Type.String(), Desc: f.Tag.Get("desc")}
	}
	return out
}()

// Knobs returns every knob a JobSpec carries, in declaration order. The
// fields carry no default: defaults belong to a set (Entry.Schema).
func Knobs() []Field { return slices.Clone(knobs) }

// knob addresses the field of s behind knob name: the zero Value when
// JobSpec has no such knob.
func (s *JobSpec) knob(name string) reflect.Value {
	i := slices.IndexFunc(knobs, func(f Field) bool { return f.Name == name })
	if i < 0 {
		return reflect.Value{}
	}
	return reflect.ValueOf(s).Elem().Field(i + 1)
}

// Set parses text into knob name, written as on the command line or in
// a schema default ("0.8", "262144", "torus").
func (s *JobSpec) Set(name, text string) error {
	v := s.knob(name)
	var err error
	switch v.Kind() {
	case reflect.Invalid:
		return fmt.Errorf("spec: unknown knob %q", name)
	case reflect.String:
		v.SetString(text)
	case reflect.Float64:
		var x float64
		if x, err = strconv.ParseFloat(text, 64); err == nil {
			v.SetFloat(x)
		}
	default: // int, int64
		var n int64
		if n, err = strconv.ParseInt(text, 0, v.Type().Bits()); err == nil {
			v.SetInt(n)
		}
	}
	if err != nil {
		return fmt.Errorf("spec: %s: %w", name, err)
	}
	return nil
}

// specHashDomain versions the canonical encoding: bump it if the
// serialization ever changes shape, so stale on-disk cache entries
// can never be misread as current.
const specHashDomain = "sdt-jobspec-v1\n"

// Validate checks the spec names a registered scenario set and carries
// knob values that set accepts (see Entry.validate).
func (s JobSpec) Validate() error {
	if s.Scenario == "" {
		return fmt.Errorf("spec: missing scenario name")
	}
	e, ok := Lookup(s.Scenario)
	if !ok {
		return fmt.Errorf("spec: unknown scenario %q", s.Scenario)
	}
	return e.validate(s)
}

// validate checks s's knob values for set e, and refuses any non-zero
// knob but workers that e's schema does not list: such a knob would
// change the content hash without changing a byte of the result, so it
// is refused by name rather than ignored.
func (e Entry) validate(s JobSpec) error {
	for _, k := range knobs {
		v := s.knob(k.Name)
		switch {
		case v.IsZero():
		case k.Name != "seed" && (v.CanInt() && v.Int() < 0 || v.CanFloat() && v.Float() < 0):
			return fmt.Errorf("spec: %s = %v: negative values are invalid", k.Name, v)
		case k.Name != knobWorkers && !slices.ContainsFunc(e.Schema, func(f Field) bool { return f.Name == k.Name }):
			names := make([]string, len(e.Schema))
			for i, f := range e.Schema {
				names[i] = f.Name
			}
			return fmt.Errorf("spec: scenario %q does not read %q (its fields: %s)",
				e.Name, k.Name, strings.Join(names, ", "))
		}
	}
	if s.Load > 1 {
		return fmt.Errorf("spec: load %g outside (0, 1]", s.Load)
	}
	if _, err := msToTime("dur_ms", s.DurMs); err != nil {
		return err
	}
	if _, err := msToTime("mtbf_ms", s.MTBFMs); err != nil {
		return err
	}
	if s.CC != "" && !slices.Contains(netsim.CCPolicies(), s.CC) {
		return fmt.Errorf("spec: unknown cc policy %q", s.CC)
	}
	if s.Reconfig != "" {
		if _, err := reconfigTarget(s.Reconfig); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
	}
	return nil
}

// msToTime converts a wire duration in fractional milliseconds to
// simulated picoseconds. Zero stays zero (the set's default, or its
// full grid); any other value must land on a picosecond count in [1,
// MaxInt64]. Outside that range Go leaves the float→int64 conversion
// implementation-defined (MinInt64 on amd64, 0 on 386, MaxInt64 on
// arm64) and a sub-picosecond value truncates to zero, so both are
// refused, naming the field, instead of running — and caching — the
// default grid under a non-default spec hash.
func msToTime(field string, ms float64) (netsim.Time, error) {
	if ms == 0 {
		return 0, nil
	}
	ps := ms * float64(netsim.Millisecond)
	if !(ps >= 1 && ps < 1<<63) {
		return 0, fmt.Errorf("spec: %s = %g ms is not a positive picosecond count that fits int64", field, ms)
	}
	return netsim.Time(ps), nil
}

// dur and mtbf are the spec's windows in simulated time. Runners read
// them from validated specs, where every value converts.
func (s JobSpec) dur() netsim.Time  { t, _ := msToTime("dur_ms", s.DurMs); return t }
func (s JobSpec) mtbf() netsim.Time { t, _ := msToTime("mtbf_ms", s.MTBFMs); return t }

// normalized returns the result-identity form of the spec: every zero
// knob the set reads at its schema default, and Workers zeroed (fan-out
// never changes simulated results).
func (s JobSpec) normalized() JobSpec {
	if e, ok := Lookup(s.Scenario); ok {
		s = e.withDefaults(s)
	}
	s.Workers = 0
	return s
}

// Canonical returns the canonical serialization the content hash
// covers: the normalized spec marshalled with a fixed field order and
// zero fields omitted, so field order in the submitted JSON — and the
// zero-vs-absent spelling of every optional knob — cannot perturb the
// key.
func (s JobSpec) Canonical() []byte {
	b, err := json.Marshal(s.normalized())
	if err != nil {
		// Marshalling a flat struct of scalars cannot fail.
		panic("spec: canonical encode: " + err.Error())
	}
	return b
}

// Hash returns the spec's content hash (hex SHA-256 over the
// domain-separated canonical encoding) — the service's cache key and
// dedup identity. Stable across processes, machines, and field
// reordering of the submitted JSON; distinct whenever any
// result-relevant field (seed included) differs.
func (s JobSpec) Hash() string {
	h := sha256.New()
	h.Write([]byte(specHashDomain))
	h.Write(s.Canonical())
	return hex.EncodeToString(h.Sum(nil))
}
