package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/projection"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/workload"
)

func init() {
	Register(0, "table1", "Table I: qualitative comparison of network evaluation tools",
		func(_ context.Context, _ Params, w, _ io.Writer) error {
			Table1().Format(w)
			return nil
		})
	Register(70, "isolation", "§VI-B: hardware isolation between co-hosted topologies",
		func(_ context.Context, _ Params, w, _ io.Writer) error {
			r, err := Isolation()
			if err != nil {
				return err
			}
			r.Format(w)
			return nil
		})
	Register(80, "active", "§VI-E: UGAL active routing vs minimal routing on Dragonfly",
		func(ctx context.Context, p Params, w, _ io.Writer) error {
			r, err := ActiveRouting(ctx, 8, p.Bytes)
			if err != nil {
				return err
			}
			r.Format(w)
			return nil
		}, FieldBytes)
	Register(90, "tables", "§VII-C: flow-table occupancy, merged vs naive encoding",
		func(_ context.Context, _ Params, w, _ io.Writer) error {
			r, err := FlowTableUsage()
			if err != nil {
				return err
			}
			r.Format(w)
			return nil
		})
}

// Table1Result wraps the qualitative rubric of Table I.
type Table1Result struct{ Rows []costmodel.ToolRow }

// Table1 returns the paper's Table I.
func Table1() *Table1Result { return &Table1Result{Rows: costmodel.Table1()} }

// Format prints Table I.
func (r *Table1Result) Format(w io.Writer) {
	writeHeader(w, "Table I: comparison of network evaluation tools")
	fmt.Fprintf(w, "%-10s %-8s %-9s %-16s %-12s %-10s\n", "tool", "price", "manpower", "(re)config", "scalability", "efficiency")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %-8s %-9s %-16s %-12s %-10s\n",
			row.Tool, row.Price, row.Manpower, row.Reconfig, row.Scalability, row.Efficiency)
	}
}

// IsolationResult is the §VI-B hardware-isolation check: two
// unconnected topologies co-hosted on one SDT must not exchange any
// packet.
type IsolationResult struct {
	IntraADelivered bool
	IntraBDelivered bool
	CrossDelivered  bool // must be false
	EntriesA        int
	EntriesB        int
}

// Isolation deploys two disjoint chains on one physical switch and
// walks packets through the real flow tables (the Wireshark-sniffer
// methodology, §VI-B end).
func Isolation() (*IsolationResult, error) {
	ctl, err := controller.NewFromTopologies(
		[]projection.PhysicalSwitch{projection.H3CS6861("big")},
		[]*topology.Graph{topology.Line(8, 4)},
	)
	if err != nil {
		return nil, err
	}
	a := topology.Line(3, 1)
	a.Name = "tenant-a"
	b := topology.Line(3, 1)
	b.Name = "tenant-b"
	da, err := ctl.Deploy(a, controller.Options{})
	if err != nil {
		return nil, err
	}
	db, err := ctl.Deploy(b, controller.Options{})
	if err != nil {
		return nil, err
	}
	res := &IsolationResult{EntriesA: da.Entries, EntriesB: db.Entries}
	res.IntraADelivered = walkTables(ctl.Physical, da.Plan, a.Hosts()[0], a.Hosts()[2]) > 0
	res.IntraBDelivered = walkTables(ctl.Physical, db.Plan, b.Hosts()[0], b.Hosts()[2]) > 0
	// Cross-tenant: inject from tenant A's host port toward a tenant-B
	// host ID. Any delivery is an isolation violation.
	ref := da.Plan.HostAttach[a.Hosts()[0]]
	fwd := ctl.Physical[ref.Switch].Process(openflow.PacketMeta{
		InPort: ref.Port, SrcHost: a.Hosts()[0], DstHost: b.Hosts()[2] + 1_000_000, Tag: 0, Bytes: 100,
	})
	res.CrossDelivered = fwd.Matched && !fwd.Dropped
	return res, nil
}

// walkTables pushes a packet through physical flow tables following
// the plan's cables; returns crossbar hops to delivery, or -1.
func walkTables(switches []*openflow.Switch, plan *projection.Plan, src, dst int) int {
	ref, ok := plan.HostAttach[src]
	if !ok {
		return -1
	}
	tag := 0
	for hops := 1; hops <= 64; hops++ {
		fwd := switches[ref.Switch].Process(openflow.PacketMeta{
			InPort: ref.Port, SrcHost: src, DstHost: dst, Tag: tag, Bytes: 512,
		})
		if !fwd.Matched || fwd.Dropped {
			return -1
		}
		tag = fwd.Tag
		out := projection.PortRef{Switch: ref.Switch, Port: fwd.OutPort}
		if out == plan.HostAttach[dst] {
			return hops
		}
		nxt, ok := plan.CableAt(out)
		if !ok {
			return -1
		}
		ref = nxt
	}
	return -1
}

// Format prints the isolation verdict.
func (r *IsolationResult) Format(w io.Writer) {
	writeHeader(w, "§VI-B: hardware isolation between co-hosted topologies")
	fmt.Fprintf(w, "tenant A intra-traffic delivered: %v (%d entries)\n", r.IntraADelivered, r.EntriesA)
	fmt.Fprintf(w, "tenant B intra-traffic delivered: %v (%d entries)\n", r.IntraBDelivered, r.EntriesB)
	fmt.Fprintf(w, "cross-tenant packet delivered:    %v (must be false)\n", r.CrossDelivered)
}

// ActiveRoutingResult is §VI-E: UGAL active routing vs minimal routing
// for a skewed Alltoall on Dragonfly.
type ActiveRoutingResult struct {
	Nodes      int
	ACTMinimal netsim.Time
	ACTActive  netsim.Time
	// Reduction is (min-active)/min; positive means active routing
	// reduced the ACT, as the paper reports.
	Reduction float64
	Epochs    int
}

// ActiveRouting runs an alltoall over nodes concentrated in a few
// Dragonfly groups (stressing few global links), first with minimal
// routing, then with UGAL fed by the Network Monitor's measured loads.
func ActiveRouting(ctx context.Context, nodes, bytes int) (*ActiveRoutingResult, error) {
	if nodes <= 0 {
		nodes = 8
	}
	if bytes <= 0 {
		bytes = 256 * 1024
	}
	g := topology.Dragonfly(4, 9, 2, 1)
	// Hosts from the first groups only: adversarial for minimal routing.
	var hosts []int
	for _, h := range g.Hosts() {
		if len(hosts) < nodes {
			hosts = append(hosts, h)
		}
	}
	if len(hosts) < nodes {
		return nil, fmt.Errorf("activerouting: only %d hosts", len(hosts))
	}
	tb := &core.Testbed{Cfg: netsim.DefaultConfig()}
	sc := core.Scenario{Topo: g, Trace: workload.Alltoall(nodes, bytes, 4), Hosts: hosts, Mode: core.FullTestbed}

	minRoutes, err := routing.DragonflyMinimal{}.Compute(g)
	if err != nil {
		return nil, err
	}
	sc.Strategy = routing.Fixed{Routes: minRoutes}
	// The Network Monitor reads the minimal run's finished fabric.
	mon := controller.NewMonitor()
	collect := core.Hooks{Finish: func(_ *core.RunResult, net *netsim.Network) { mon.CollectSim(net) }}
	minRes, err := core.Run(ctx, tb, sc, core.WithObserver(collect))
	if err != nil {
		return nil, err
	}
	active, err := mon.ActiveRouting(g, 1)
	if err != nil {
		return nil, err
	}
	if err := routing.VerifyDeadlockFree(active); err != nil {
		return nil, err
	}
	sc.Strategy = routing.Fixed{Routes: active}
	ugalRes, err := core.Run(ctx, tb, sc)
	if err != nil {
		return nil, err
	}
	actMin, actUGAL := minRes.ACT, ugalRes.ACT
	return &ActiveRoutingResult{
		Nodes: nodes, ACTMinimal: actMin, ACTActive: actUGAL,
		Reduction: float64(actMin-actUGAL) / float64(actMin),
		Epochs:    mon.Epochs,
	}, nil
}

// Format prints the §VI-E comparison.
func (r *ActiveRoutingResult) Format(w io.Writer) {
	writeHeader(w, "§VI-E: active (UGAL) routing vs minimal routing on Dragonfly")
	fmt.Fprintf(w, "nodes: %d\n", r.Nodes)
	fmt.Fprintf(w, "Alltoall ACT, minimal routing: %.3f ms\n", float64(r.ACTMinimal)/float64(netsim.Millisecond))
	fmt.Fprintf(w, "Alltoall ACT, active routing:  %.3f ms\n", float64(r.ACTActive)/float64(netsim.Millisecond))
	fmt.Fprintf(w, "ACT reduction: %s (paper: active routing reduces the ACT)\n", pct(r.Reduction))
}

// FlowTableUsageResult is §VII-C: flow-table occupancy for the k=4
// fat-tree on two switches, with and without entry merging.
type FlowTableUsageResult struct {
	Switches        int
	MergedPerSwitch []int // tag-encoded (merged) entries per switch
	NaivePerSwitch  []int // per-in-port entries per switch
	Capacity        int
}

// FlowTableUsage measures both encodings.
func FlowTableUsage() (*FlowTableUsageResult, error) {
	g := topology.FatTree(4)
	switches := []projection.PhysicalSwitch{
		projection.Commodity64("a"), projection.Commodity64("b"), projection.Commodity64("c"),
	}
	cab, err := projection.PlanCabling(switches, []*topology.Graph{g}, partitionOpts())
	if err != nil {
		return nil, err
	}
	plan, err := projection.Project(g, cab, partitionOpts())
	if err != nil {
		return nil, err
	}
	routes, err := routing.FatTreeDFS{}.Compute(g)
	if err != nil {
		return nil, err
	}
	res := &FlowTableUsageResult{Capacity: switches[0].TableCap}
	merged, err := projection.CompileFlowTables(plan, routes, projection.CompileOptions{Encoding: projection.TagEncoded})
	if err != nil {
		return nil, err
	}
	naive, err := projection.CompileFlowTables(plan, routes, projection.CompileOptions{Encoding: projection.PerInPort})
	if err != nil {
		return nil, err
	}
	for i := range merged {
		if merged[i].Table.Len() == 0 && naive[i].Table.Len() == 0 {
			continue
		}
		res.Switches++
		res.MergedPerSwitch = append(res.MergedPerSwitch, merged[i].Table.Len())
		res.NaivePerSwitch = append(res.NaivePerSwitch, naive[i].Table.Len())
	}
	return res, nil
}

// Format prints the §VII-C occupancy.
func (r *FlowTableUsageResult) Format(w io.Writer) {
	writeHeader(w, "§VII-C: flow-table usage, Fat-Tree k=4 on 2 switches")
	for i := 0; i < r.Switches; i++ {
		fmt.Fprintf(w, "switch %d: %d entries merged (tag-encoded), %d naive (per-in-port), capacity %d\n",
			i, r.MergedPerSwitch[i], r.NaivePerSwitch[i], r.Capacity)
	}
	fmt.Fprintf(w, "paper: \"each switch requires about only 300 flow table entries\"\n")
}
