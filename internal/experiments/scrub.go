package experiments

// Output canonicalisation shared by the golden-output harness
// (golden_test.go) and the service layer's cache verification: a
// scenario set's formatted table is byte-stable *except* for
// wall-clock-derived columns, which vary run to run. Scrub masks
// exactly those columns, so two outputs of the same (scenario, params,
// seed) spec compare equal iff the simulated results match —
// the comparator behind both the committed goldens and the "a cache
// hit is byte-identical to a fresh run" contract.

import (
	"regexp"
	"strconv"
	"strings"
)

// Scrub canonicalises one scenario set's formatted output for
// comparison: wall-clock-derived columns are replaced with "<wall>"
// (and host-dependent header values masked) on the sets that print
// them; every other set's output passes through untouched and must
// match byte-for-byte.
func Scrub(name, out string) string {
	if scrub := outputScrub[name]; scrub != nil {
		return scrub(out)
	}
	return out
}

// outputScrub maps experiment names whose output contains wall-clock-
// derived columns to a canonicalising scrubber. Experiments not listed
// compare byte-for-byte.
var outputScrub = map[string]func(string) string{
	// fig13 data rows: nodes, ACT, full eval, SDT eval, sim eval,
	// SDT/full, sim/full — sim eval (4) and sim/full (6) are wall.
	"fig13": maskColumns(func(f []string) bool {
		if len(f) != 7 {
			return false
		}
		_, err := strconv.Atoi(f[0])
		return err == nil
	}, 4, 6),
	// table4 data rows: app, topology, ranks, ACT(SDT), ACT(sim), dev,
	// eval(SDT), eval(sim), speedup — eval(sim) (7) and speedup (8)
	// are wall.
	"table4": maskColumns(func(f []string) bool {
		if len(f) != 9 {
			return false
		}
		_, err := strconv.Atoi(f[2])
		return err == nil
	}, 7, 8),
	// loadgen-sweep-xl data rows: topology, hosts, pattern, flows,
	// recomputes, 3 bucket columns, wall(ms) — only wall (8) varies;
	// the trailing speedup line is wall-clock on both sides.
	"loadgen-sweep-xl": func(out string) string {
		out = maskColumns(func(f []string) bool {
			if len(f) != 9 {
				return false
			}
			_, err := strconv.Atoi(f[1])
			if err != nil {
				return false
			}
			_, err = strconv.Atoi(f[4])
			return err == nil
		}, 8)(out)
		return flowSpeedupRe.ReplaceAllString(out, "packet <wall> flow <wall> speedup <wall>")
	},
}

var flowSpeedupRe = regexp.MustCompile(`packet \S+ flow \S+ speedup \S+`)

// maskColumns canonicalises whitespace (fields joined by one space, so
// masked values of different widths cannot shift layout) and replaces
// the given field indices with "<wall>" on lines the predicate
// accepts.
func maskColumns(isDataRow func(fields []string) bool, cols ...int) func(string) string {
	return func(out string) string {
		lines := strings.Split(out, "\n")
		for i, line := range lines {
			f := strings.Fields(line)
			if len(f) == 0 {
				continue
			}
			if isDataRow(f) {
				for _, c := range cols {
					f[c] = "<wall>"
				}
			}
			lines[i] = strings.Join(f, " ")
		}
		return strings.Join(lines, "\n")
	}
}
