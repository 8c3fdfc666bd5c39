// Package netsim is an event-driven, packet-level network simulator in
// the style of BookSim and SST/Macro (§VI-A2 of the paper): it supports
// PFC lossless operation, ECN marking, DCQCN rate control, a Reno-style
// TCP, cut-through forwarding, and trace replay of MPI-like
// applications.
//
// The same engine plays two roles in the reproduction:
//
//   - as the paper's *simulator baseline* (its wall-clock execution time
//     is what Fig. 13 compares against), and
//   - as the substrate standing in for physical hardware: the "full
//     testbed" is the engine run on the logical topology with one
//     crossbar per switch, while "SDT" is the same logical topology
//     whose sub-switches share the crossbars of their physical hosts
//     (plus the flow-table pipeline overhead), so the *difference*
//     between the two runs isolates exactly the projection overhead the
//     paper measures in Figs. 11–12.
//
// Scheduling is delegated to internal/engine: a zero-allocation,
// cancellable discrete-event core. Every hot-path event in this package
// is a typed record dispatched through OnEvent handlers (see the ev*
// kinds below); closures survive only on cold measurement paths.
package netsim

import (
	"repro/internal/engine"
)

// Time is simulation time in picoseconds (see engine.Time).
type Time = engine.Time

// Common durations.
const (
	Nanosecond  = engine.Nanosecond
	Microsecond = engine.Microsecond
	Millisecond = engine.Millisecond
	Second      = engine.Second
)

// Sim is the discrete-event scheduler driving one Network. Events at
// equal times run in scheduling order (deterministic).
type Sim = engine.Engine

// NewSim returns a scheduler at time zero.
func NewSim() *Sim { return engine.New() }

// Typed event kinds. Each handler type switches on its own subset; the
// payload conventions are documented at the scheduling sites.
const (
	// Network events.
	evTxDone    int32 = iota // Ref=link of the port, A=inPort<<4|prio, B=size
	evArrive                 // Ref=packet, A=link index
	evPfcPause               // Ref=link of the paused port, A=priority class
	evPfcResume              // Ref=link of the paused port, A=priority class
	evQPSend                 // Ref=queue pair, A=pacing gap (Time), B=packet
	evQPTick                 // Ref=queue pair: CC policy timer (DCQCN rate increase)
	// SimSwitch events.
	evSwEnqueue // Ref=packet, A=out port, B=inPort<<4|arrival class
	// Host events.
	evDeliver // A=src vertex, B=app tag
	// TCPConn events.
	evRTO // retransmission timeout (cancellable handle)
	// App events.
	evAppStep // Ref=rank index
	// FlowApp events.
	evFlowStart // A=index into the sorted start order
	evFlowDone  // A=flow index
)
