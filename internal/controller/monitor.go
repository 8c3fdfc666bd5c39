package controller

import (
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Monitor is the Network Monitor module (§V-3): it periodically
// collects per-port statistics and derives per-logical-link loads for
// adaptive routing ("the collected data can be further used to
// calculate the load of each logical switch in the case of adaptive
// routing").
type Monitor struct {
	// Loads is the latest per-logical-edge byte count.
	Loads map[int]float64
	// Epochs counts collection rounds.
	Epochs int
}

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor { return &Monitor{Loads: map[int]float64{}} }

// CollectSim snapshots link loads from a running simulation (the
// stand-in for polling hardware port counters over OpenFlow) and
// resets the counters for the next epoch.
func (m *Monitor) CollectSim(net *netsim.Network) {
	m.Loads = net.LinkLoads()
	net.ResetLinkLoads()
	m.Epochs++
}

// ActiveRouting recomputes Dragonfly routes with UGAL using the
// monitor's current loads — §VI-E's active routing built from the
// Routing Strategy and Network Monitor modules.
func (m *Monitor) ActiveRouting(g *topology.Graph, bias float64) (*routing.Routes, error) {
	return routing.DragonflyUGAL{Loads: m.Loads, Bias: bias}.Compute(g)
}
