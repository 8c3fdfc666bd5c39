package projection

import (
	"fmt"

	"repro/internal/partition"
	"repro/internal/topology"
)

// Method enumerates the Topology Projection methods compared in
// Table II.
type Method int

const (
	// MethodSDT is this paper's Link Projection on OpenFlow switches.
	MethodSDT Method = iota
	// MethodSP is Switch Projection with manual cabling (§III-B).
	MethodSP
	// MethodSPOS is SP with a MEMS optical switch doing the recabling
	// (§III-C).
	MethodSPOS
	// MethodTurboNet is TurboNet's Port Mapper on a P4 switch: logical
	// links realised by loopback ports, halving usable port bandwidth.
	MethodTurboNet
)

// String names the method as in the paper.
func (m Method) String() string {
	switch m {
	case MethodSDT:
		return "SDT"
	case MethodSP:
		return "SP"
	case MethodSPOS:
		return "SP-OS"
	case MethodTurboNet:
		return "TurboNet(PM)"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Requirement is what a method needs to project one topology.
type Requirement struct {
	Method   Method
	Switches int // physical (OpenFlow/P4) switches
	// OpticalPorts is the MEMS optical switch port count (SP-OS only):
	// every physical switch port is patched through the optical switch.
	OpticalPorts int
	// ManualCables is the number of cables a human must (re)connect on
	// every reconfiguration (SP only).
	ManualCables int
	// BandwidthFactor is the fraction of nominal port bandwidth
	// available to the experiment (TurboNet's loopback halves it).
	BandwidthFactor float64
}

// Requirements computes the minimal hardware for projecting g with
// method m using switches of the given spec, considering at most
// maxSwitches. It fails when the topology cannot fit.
func Requirements(g *topology.Graph, spec PhysicalSwitch, m Method, maxSwitches int) (Requirement, error) {
	effSpec, bw := methodSpec(spec, m)
	req := Requirement{Method: m, BandwidthFactor: bw}
	if effSpec.Ports < 1 {
		return req, fmt.Errorf("projection: %s: switch spec has no usable ports", m)
	}
	k, why := minSwitches(g, effSpec, maxSwitches)
	if why.kind == cutFailed {
		return req, fmt.Errorf("projection: %s: %w", m, why.err)
	}
	if k == 0 {
		// minSwitches names its alike switches <ID>-0, <ID>-1, …, and
		// a part that overflows one overflows the first.
		alike := []PhysicalSwitch{{ID: effSpec.ID + "-0"}}
		return req, fmt.Errorf("projection: %s: does not fit on %d switches of %d ports: %s",
			m, max(maxSwitches, 1), effSpec.Ports, why.text(g, alike))
	}
	req.Switches = k
	switch m {
	case MethodSPOS:
		// All ports of every physical switch are patched into the
		// optical switch so any reconfiguration is remote (§III-C).
		req.OpticalPorts = k * spec.Ports
	case MethodSP:
		// Every switch-switch logical link plus every host link is a
		// manual cable to move on reconfiguration.
		req.ManualCables = g.NumSwitchSwitchEdges() + g.HostFacingPorts()
	}
	return req, nil
}

// methodSpec returns the switch as method m can use it and the fraction
// of port bandwidth left to the experiment. TurboNet realises each
// logical link through loopback ports, which halves the switch's usable
// external port count and the per-port bandwidth available to the
// emulated topology [35].
func methodSpec(spec PhysicalSwitch, m Method) (PhysicalSwitch, float64) {
	if m == MethodTurboNet {
		spec.Ports /= 2
		return spec, 0.5
	}
	return spec, 1
}

// minSwitches finds the smallest k <= maxSwitches such that a k-way
// partition of g fits on k switches of the given spec, or returns 0 and
// why the last k failed. The switches are alike, so the k of them have
// k·spec.Ports ports and the parts fit when the heaviest does.
func minSwitches(g *topology.Graph, spec PhysicalSwitch, maxSwitches int) (int, reason) {
	var why reason
	var d demands // allocated at the first Cut: large graphs skip every k
	need, kMax := portsNeeded(g), min(max(maxSwitches, 1), g.NumSwitches())
	for k := 1; k <= kMax; k++ {
		if r, short := portShortfall(need, k*spec.Ports, k); short {
			why = r
			continue
		}
		parts, err := partition.Cut(g, k, partition.Options{})
		if err != nil {
			return 0, reason{kind: cutFailed, err: err}
		}
		if d.self == nil {
			d = newDemands(kMax)
		}
		d.of(g, parts)
		if p := d.sortParts()[0]; d.ports[p] > spec.Ports { // the heaviest part, lowest on ties
			why = reason{kind: partOverflows, part: p, need: d.ports[p], sw: 0, have: spec.Ports}
			continue
		}
		return k, reason{}
	}
	return 0, why
}

// Projectable reports whether method m can realise g with at most
// maxSwitches switches of the given spec — the Table II scalability
// metric over the topology zoo. It is Requirements without the error,
// which it never formats.
func Projectable(g *topology.Graph, spec PhysicalSwitch, m Method, maxSwitches int) bool {
	spec, _ = methodSpec(spec, m)
	if spec.Ports < 1 {
		return false
	}
	k, _ := minSwitches(g, spec, maxSwitches)
	return k > 0
}
