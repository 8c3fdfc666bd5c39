// Package costmodel prices the Topology Projection methods of Table II
// and models their reconfiguration times, using the figures the paper
// cites: a 320-port MEMS optical switch costs more than $100k and
// carries only 160 LC-LC fibres (§III-C); TurboNet needs a Tofino P4
// switch and a time-consuming recompile; SP needs a human moving
// cables; SDT needs only flow-table updates.
package costmodel

import (
	"time"

	"repro/internal/projection"
)

// Hardware prices (USD), extrapolated from market prices as the paper
// does for Table II.
const (
	// PriceOpenFlowSwitch is a commodity 64x10G OpenFlow switch.
	PriceOpenFlowSwitch = 6000.0
	// PriceP4Switch is a Tofino-class programmable switch (TurboNet).
	PriceP4Switch = 14000.0
	// PriceOpticalSwitch320 is the 320-port MEMS optical switch
	// (§III-C: "more than $100k").
	PriceOpticalSwitch320 = 110000.0
	// PriceOpticalPort is the marginal per-port optical cost used when
	// sizing smaller/larger optical switches.
	PriceOpticalPort = PriceOpticalSwitch320 / 320
	// PriceCable is one DAC/fibre cable.
	PriceCable = 12.0
)

// Reconfiguration time constants.
const (
	// ManualPerCable is the human time to unplug/replug and verify one
	// cable during an SP reconfiguration.
	ManualPerCable = 45 * time.Second
	// OpticalSwitchTime is the MEMS reconfiguration delay (§II-A1:
	// "about 100ms") plus control overhead.
	OpticalSwitchTime = 150 * time.Millisecond
	// P4Recompile is TurboNet's P4 program recompile + load.
	P4Recompile = 5 * time.Minute
	// ControllerBase is the SDT controller's fixed planning cost per
	// deployment (partitioning, projection, route computation).
	ControllerBase = 100 * time.Millisecond
	// FlowModTime is the install time per flow-table entry with batched
	// OpenFlow flow-mods (~12k mods/s, typical for commodity switches).
	FlowModTime = 80 * time.Microsecond
)

// HardwareCost prices the hardware a requirement implies.
func HardwareCost(req projection.Requirement) float64 {
	switch req.Method {
	case projection.MethodTurboNet:
		return float64(req.Switches) * PriceP4Switch
	case projection.MethodSPOS:
		// Products are rounded explicitly (float64(x*y)) so that no
		// architecture fuses them into the sum.
		return float64(float64(req.Switches)*PriceOpenFlowSwitch) +
			float64(float64(req.OpticalPorts)*PriceOpticalPort) +
			float64(float64(req.OpticalPorts)*PriceCable) // patch fibres
	default: // SDT, SP
		return float64(req.Switches) * PriceOpenFlowSwitch
	}
}

// ReconfigTime models the time from "configuration placed" until "the
// network is available" (Table II's metric). entries is the flow-table
// entry count the new topology needs (SDT/SP-OS install them; SP and
// TurboNet dominate on other terms).
func ReconfigTime(req projection.Requirement, entries int) time.Duration {
	flowInstall := ControllerBase + time.Duration(entries)*FlowModTime
	switch req.Method {
	case projection.MethodSP:
		return time.Duration(req.ManualCables)*ManualPerCable + flowInstall
	case projection.MethodSPOS:
		return OpticalSwitchTime + flowInstall
	case projection.MethodTurboNet:
		return P4Recompile
	default: // SDT
		return flowInstall
	}
}

// Rating is a 3-level qualitative score used in Table I.
type Rating int

// Ratings, low to high.
const (
	Low Rating = iota
	Medium
	High
)

func (r Rating) String() string {
	switch r {
	case Low:
		return "Low"
	case Medium:
		return "Medium"
	default:
		return "High"
	}
}

// ToolRow is one column of Table I (comparison of network evaluation
// tools for various topologies).
type ToolRow struct {
	Tool        string
	Price       Rating
	Manpower    Rating
	Reconfig    string // Easy / Medium / Hard
	Scalability Rating
	Efficiency  Rating
}

// Table1 reproduces the paper's Table I verbatim: the qualitative
// rubric motivating SDT.
func Table1() []ToolRow {
	return []ToolRow{
		{"Simulator", Low, Low, "Easy", Low, Low},
		{"Emulator", Medium, Low, "Medium", Medium, Medium},
		{"Testbed", High, High, "Hard", High, High},
		{"SDT", Medium, Low, "Easy", High, High},
	}
}
