package experiments

// The canonical job spec: the wire-level description of one scenario
// execution — scenario name plus the Params knobs — with a stable
// content hash. The hash is a sound cache key because PRs 4–5 made
// every registered set's output a byte-stable pure function of
// (scenario, params, seed): equal hashes imply byte-identical
// simulated results, and a Runner writes nothing else to the sink the
// service caches (host wall clock goes to its measured sink). Two
// deliberate normalisations widen hit rates without weakening that
// soundness:
//
//   - Workers is zeroed before hashing: the worker fan-out never
//     changes simulated results (the golden harness's parallel pass
//     pins this), so a 1-worker and an 8-worker submission of the same
//     scenario share a cache line.
//   - Seed 0 normalises to 1: every seeded set documents and applies
//     "0 = 1", so the two spellings are the same schedule.
//
// Everything else — including per-experiment defaults like Flows —
// hashes as written: an explicit default and a zero field may miss
// each other's cache line, but never alias distinct results.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"repro/internal/netsim"
)

// JobSpec is the canonical description of one scenario-set execution.
// Field names and units mirror the sdtbench flags (durations in
// fractional milliseconds); zero fields mean each experiment's
// documented default, exactly as on the CLI.
type JobSpec struct {
	Scenario string  `json:"scenario"`
	Ranks    int     `json:"ranks,omitempty"`
	Reps     int     `json:"reps,omitempty"`
	Bytes    int     `json:"bytes,omitempty"`
	Zoo      int     `json:"zoo,omitempty"`
	DurMs    float64 `json:"dur_ms,omitempty"`
	Workers  int     `json:"workers,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Flows    int     `json:"flows,omitempty"`
	Load     float64 `json:"load,omitempty"`
	Faults   int     `json:"faults,omitempty"`
	MTBFMs   float64 `json:"mtbf_ms,omitempty"`
	Reconfig string  `json:"reconfig,omitempty"`
	CC       string  `json:"cc,omitempty"`
}

// specHashDomain versions the canonical encoding: bump it if the
// serialization ever changes shape, so stale on-disk cache entries
// can never be misread as current.
const specHashDomain = "sdt-jobspec-v1\n"

// Validate checks the spec names a registered scenario set, carries
// sane knob values, and sets no result field the set does not read: a
// field outside the set's registered Schema would change the content
// hash without changing a byte of the result, so it is refused by name
// rather than ignored. Workers, an execution knob, is accepted on every
// set.
func (s JobSpec) Validate() error {
	if s.Scenario == "" {
		return fmt.Errorf("spec: missing scenario name")
	}
	e, ok := Lookup(s.Scenario)
	if !ok {
		return fmt.Errorf("spec: unknown scenario %q", s.Scenario)
	}
	if s.Ranks < 0 || s.Reps < 0 || s.Bytes < 0 || s.Zoo < 0 || s.Flows < 0 ||
		s.Faults < 0 || s.Workers < 0 {
		return fmt.Errorf("spec: negative counts are invalid")
	}
	if s.DurMs < 0 || s.MTBFMs < 0 || s.Load < 0 || s.Load > 1 {
		return fmt.Errorf("spec: dur_ms/mtbf_ms must be >= 0 and load in [0, 1]")
	}
	if _, err := msToTime(FieldDur.Name, s.DurMs); err != nil {
		return err
	}
	if _, err := msToTime(FieldMTBF.Name, s.MTBFMs); err != nil {
		return err
	}
	names := make([]string, len(e.Schema))
	for i, f := range e.Schema {
		names[i] = f.Name
	}
	for _, f := range []struct {
		name string
		zero bool
	}{
		{FieldRanks.Name, s.Ranks == 0}, {FieldReps.Name, s.Reps == 0},
		{FieldBytes.Name, s.Bytes == 0}, {FieldZoo.Name, s.Zoo == 0},
		{FieldDur.Name, s.DurMs == 0}, {FieldSeed.Name, s.Seed == 0},
		{FieldFlows.Name, s.Flows == 0}, {FieldLoad.Name, s.Load == 0},
		{FieldFaults.Name, s.Faults == 0}, {FieldMTBF.Name, s.MTBFMs == 0},
		{FieldReconfig.Name, s.Reconfig == ""}, {FieldCC.Name, s.CC == ""},
	} {
		if !f.zero && !slices.Contains(names, f.name) {
			return fmt.Errorf("spec: scenario %q does not read %q (its fields: %s)",
				s.Scenario, f.name, strings.Join(names, ", "))
		}
	}
	if s.CC != "" {
		ok := false
		for _, p := range netsim.CCPolicies() {
			if s.CC == p {
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("spec: unknown cc policy %q", s.CC)
		}
	}
	if _, err := reconfigTarget(s.Reconfig); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	return nil
}

// msToTime converts a wire duration in fractional milliseconds to
// simulated picoseconds. Zero stays zero ("the experiment's default");
// any other value must land on a picosecond count in [1, MaxInt64].
// Outside that range Go leaves the float→int64 conversion
// implementation-defined (MinInt64 on amd64, 0 on 386, MaxInt64 on
// arm64) and a sub-picosecond value truncates to the default, so both
// are refused, naming the field, instead of running — and caching —
// the default grid under a non-default spec hash.
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

// Params converts the wire spec into the registry's Params. It is
// meant for specs Validate accepts; a duration Validate would refuse
// converts to 0 here, the same on every architecture.
func (s JobSpec) Params() Params {
	dur, _ := msToTime(FieldDur.Name, s.DurMs)
	mtbf, _ := msToTime(FieldMTBF.Name, s.MTBFMs)
	return Params{
		Ranks:    s.Ranks,
		Reps:     s.Reps,
		Bytes:    s.Bytes,
		Zoo:      s.Zoo,
		Duration: dur,
		Workers:  s.Workers,
		Seed:     s.Seed,
		Flows:    s.Flows,
		Load:     s.Load,
		Faults:   s.Faults,
		MTBF:     mtbf,
		Reconfig: s.Reconfig,
		CC:       s.CC,
	}
}

// normalized returns the result-identity form of the spec: Workers
// zeroed (fan-out never changes simulated results) and Seed 0 folded
// into its documented default 1.
func (s JobSpec) normalized() JobSpec {
	s.Workers = 0
	if s.Seed == 0 {
		s.Seed = 1
	}
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
