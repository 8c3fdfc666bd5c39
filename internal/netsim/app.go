package netsim

// The application layer executes MPI-like rank programs over RoCE
// messaging: ordered per-rank operation lists with blocking receives,
// non-blocking (eager) sends, and compute phases — the trace-replay
// model the paper's simulator uses (§VI-A2: "the simulator uses the
// traces collected from running an HPC application on real computing
// nodes").

import "repro/internal/engine"

// OpKind enumerates trace operations.
type OpKind int

const (
	// OpSend posts a message to Peer (non-blocking, eager).
	OpSend OpKind = iota
	// OpRecv blocks until a message with (Peer, MTag) arrives.
	OpRecv
	// OpCompute advances local time by Dur.
	OpCompute
)

// Op is one trace operation.
type Op struct {
	Kind  OpKind
	Peer  int // rank index
	Bytes int
	MTag  int
	Dur   Time
}

// Rank binds a rank program to a host.
type Rank struct {
	Index      int
	host       *Host
	prog       []Op
	pc         int
	FinishedAt Time
	Done       bool
}

// App is a running distributed application: one rank per host.
type App struct {
	net    *Network
	Ranks  []*Rank
	nDone  int
	onDone func(act Time)
}

// NewApp installs rank programs onto hosts. hosts[i] runs programs[i];
// Op.Peer refers to rank indices, mapped here to host vertices.
func NewApp(n *Network, hosts []int, programs [][]Op, onDone func(act Time)) *App {
	if len(hosts) != len(programs) {
		panic("netsim: hosts/programs length mismatch")
	}
	app := &App{net: n, onDone: onDone, Ranks: make([]*Rank, len(hosts))}
	ranks := make([]Rank, len(hosts))
	for i, hv := range hosts {
		h := n.Host(hv)
		if h == nil {
			panic("netsim: app host vertex is not a host")
		}
		ranks[i] = Rank{Index: i, host: h, prog: programs[i]}
		app.Ranks[i] = &ranks[i]
	}
	return app
}

// Start launches all ranks at the current simulation time.
func (a *App) Start() {
	for _, r := range a.Ranks {
		a.net.Sim.ScheduleAfter(0, a, engine.Event{Kind: evAppStep, Ref: int32(r.Index)})
	}
}

// OnEvent resumes a rank's program (trace replay is closure-free).
func (a *App) OnEvent(now Time, ev engine.Event) {
	if ev.Kind == evAppStep {
		a.step(a.Ranks[ev.Ref])
	}
}

// hostOf maps a rank index to its host vertex.
func (a *App) hostOf(rank int) int { return a.Ranks[rank].host.vertex }

// step runs ops until the rank blocks or finishes.
func (a *App) step(r *Rank) {
	n := a.net
	for r.pc < len(r.prog) {
		op := r.prog[r.pc]
		r.pc++
		switch op.Kind {
		case OpSend:
			r.host.Send(a.hostOf(op.Peer), op.MTag, op.Bytes)
		case OpRecv:
			src := a.hostOf(op.Peer)
			cont := engine.Callback{H: a, Ev: engine.Event{Kind: evAppStep, Ref: int32(r.Index)}}
			n.mail.recv(n.Sim, r.host.vertex, src, op.MTag, cont)
			return
		case OpCompute:
			n.Sim.ScheduleAfter(op.Dur, a, engine.Event{Kind: evAppStep, Ref: int32(r.Index)})
			return
		}
	}
	if !r.Done {
		r.Done = true
		r.FinishedAt = n.Sim.Now()
		a.nDone++
		if a.nDone == len(a.Ranks) && a.onDone != nil {
			a.onDone(n.Sim.Now())
		}
	}
}

// ACT returns the application completion time (latest rank finish).
func (a *App) ACT() Time {
	var m Time
	for _, r := range a.Ranks {
		if !r.Done {
			return -1
		}
		if r.FinishedAt > m {
			m = r.FinishedAt
		}
	}
	return m
}
