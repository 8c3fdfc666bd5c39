// Package experiments regenerates every table and figure of the
// paper's evaluation (§VI). Each experiment returns a structured
// result with a Format method printing rows comparable to the paper's,
// and registers its entry point through tableSet as the scenario set
// cmd/sdtbench and the sdtd service expose.
//
// Scale note: the paper's runs last up to 16 real seconds on hardware;
// packet-level simulation of that volume is exactly the cost Fig. 13
// quantifies. The experiments therefore take size parameters (JobSpec
// knobs: bytes, reps, ranks, dur_ms, ...) whose defaults run in seconds.
// Shapes — who wins, relative overheads, trends — are preserved at
// every size; EXPERIMENTS.md records the mapping.
package experiments

import (
	"fmt"
	"io"
	"runtime"

	"repro/internal/core"
	"repro/internal/projection"
	"repro/internal/topology"
)

// fig10Topology is the 8-switch chain with one node per switch used
// for the latency and bandwidth tests (Fig. 10).
func fig10Topology() *topology.Graph { return topology.Line(8, 1) }

// testbedSizedFor returns a testbed with enough H3C-class switches for
// the topology. The paper's 3-switch cluster covers most of Table IV;
// the 4x4x4 torus needs 448 ports (>3x88), so the cluster grows —
// documented as a substitution in EXPERIMENTS.md.
func testbedSizedFor(g *topology.Graph) (*core.Testbed, error) {
	need := g.SwitchPortCount() + g.HostFacingPorts()
	count := (need+87)/88 + 1
	if count < 3 {
		count = 3
	}
	var sw []projection.PhysicalSwitch
	for i := 0; i < count; i++ {
		sw = append(sw, projection.H3CS6861(fmt.Sprintf("s6861-%d", i)))
	}
	return core.NewTestbed(sw, []*topology.Graph{g})
}

// pct renders a fraction as a signed percentage.
func pct(f float64) string { return fmt.Sprintf("%+.3f%%", f*100) }

// writeHeader prints a table title.
func writeHeader(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}

// writeMeasuredHeader titles a table of host wall-clock figures: what
// a Runner sends to its measured sink, never to w. The worker count is
// part of the title because contended runs inflate every figure under
// it.
func writeMeasuredHeader(w io.Writer, title string, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(w, "\n== %s (measured on this host, workers=%d) ==\n", title, workers)
}
