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
	req := Requirement{Method: m, BandwidthFactor: 1}
	effSpec := spec
	if m == MethodTurboNet {
		// Each logical link is realised through loopback ports, which
		// halves the switch's usable external port count and the
		// per-port bandwidth available to the emulated topology [35].
		effSpec.Ports = spec.Ports / 2
		req.BandwidthFactor = 0.5
	}
	if effSpec.Ports < 1 {
		return req, fmt.Errorf("projection: %s: switch spec has no usable ports", m)
	}
	k, err := minSwitches(g, effSpec, maxSwitches)
	if err != nil {
		return req, fmt.Errorf("projection: %s: %w", m, err)
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

// minSwitches finds the smallest k <= maxSwitches such that a k-way
// partition of g fits on k switches of the given spec.
func minSwitches(g *topology.Graph, spec PhysicalSwitch, maxSwitches int) (int, error) {
	if maxSwitches < 1 {
		maxSwitches = 1
	}
	all := make([]PhysicalSwitch, min(maxSwitches, g.NumSwitches()))
	for i := range all {
		all[i] = spec
		all[i].ID = fmt.Sprintf("%s-%d", spec.ID, i)
	}
	// The switches are alike, so the k largest are the first k.
	var lastErr error
	var short shortfall
	need, swOrder := portsNeeded(g), switchOrder(all)
	for k := 1; k <= len(all); k++ {
		if s := portShortfall(need, all, swOrder, k); s.short() {
			short, lastErr = s, &short
			continue
		}
		parts, err := partition.Cut(g, k, partition.Options{})
		if err != nil {
			return 0, err
		}
		d := demandsFor(g, parts)
		if err := fitParts(d, all, swOrder[:k], partOrder(d)); err != nil {
			lastErr = err
			continue
		}
		return k, nil
	}
	return 0, fmt.Errorf("does not fit on %d switches of %d ports: %v", maxSwitches, spec.Ports, lastErr)
}

// Projectable reports whether method m can realise g with at most
// maxSwitches switches of the given spec — the Table II scalability
// metric over the topology zoo.
func Projectable(g *topology.Graph, spec PhysicalSwitch, m Method, maxSwitches int) bool {
	_, err := Requirements(g, spec, m, maxSwitches)
	return err == nil
}
