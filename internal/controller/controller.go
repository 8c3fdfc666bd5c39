// Package controller implements the SDT controller of §V — the Ryu
// replacement — with its four modules:
//
//   - Topology Customization: checks user-defined topologies against
//     the testbed's cabling (§V-1's checking function) and runs the TP
//     process automatically (deployment function).
//   - Routing Strategy: computes flow tables per Table III or a
//     user-supplied strategy.
//   - Deadlock Avoidance: verifies lossless route sets against channel
//     dependency cycles before deployment.
//
// The fourth, the Network Monitor, reads per-link byte counters for
// adaptive (active) routing. It lives with the data plane it reads:
// Network.LinkLoads is one array indexed by edge ID, which
// telemetry.Collector samples during a run and which, read from a
// finished fabric, feeds routing.DragonflyUGAL directly.
//
// The controller drives reconfiguration entirely through flow-table
// updates: deploying a new topology config never touches a cable.
package controller

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/costmodel"
	"repro/internal/openflow"
	"repro/internal/partition"
	"repro/internal/projection"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Controller manages one SDT testbed: a fixed cabling over physical
// OpenFlow switches plus the currently deployed logical topologies.
type Controller struct {
	Cabling  *projection.Cabling
	Physical []*openflow.Switch

	alloc       *projection.Allocation
	deployments map[string]*Deployment
	nextCookie  uint64
}

// Deployment is one live logical topology on the testbed.
type Deployment struct {
	Name    string
	Topo    *topology.Graph
	Plan    *projection.Plan
	Routes  *routing.Routes
	Cookie  uint64
	TagBase int
	Entries int
	// DeployTime is the modelled reconfiguration time (controller
	// planning + flow-mod installation), per the cost model.
	DeployTime time.Duration
}

// New builds a controller over a planned cabling.
func New(cab *projection.Cabling) *Controller {
	c := &Controller{
		Cabling:     cab,
		alloc:       projection.NewAllocation(cab),
		deployments: map[string]*Deployment{},
	}
	for _, spec := range cab.Switches {
		c.Physical = append(c.Physical, openflow.NewSwitch(spec.ID, spec.Ports, spec.TableCap))
	}
	return c
}

// NewFromTopologies plans a cabling able to host every given topology
// (the §IV-B pre-planning workflow) and returns a controller over it.
func NewFromTopologies(switches []projection.PhysicalSwitch, topos []*topology.Graph) (*Controller, error) {
	cab, err := projection.PlanCabling(switches, topos, partition.Options{})
	if err != nil {
		return nil, err
	}
	return New(cab), nil
}

// Options tunes one deployment.
type Options struct {
	// Strategy overrides Table III auto-selection.
	Strategy routing.Strategy
	// RequireDeadlockFree rejects route sets whose channel dependency
	// graph is cyclic (mandatory for lossless/PFC operation).
	RequireDeadlockFree bool
}

// Check is the Topology Customization module's checking function: it
// validates the topology and verifies it fits the testbed, returning a
// descriptive error naming the necessary modification otherwise.
func (c *Controller) Check(g *topology.Graph) error {
	if err := g.Validate(); err != nil {
		return fmt.Errorf("controller: topology rejected: %w", err)
	}
	if _, dup := c.deployments[g.Name]; dup {
		return fmt.Errorf("controller: topology %q already deployed", g.Name)
	}
	// The probe books exactly what the live deployments book, so the
	// check reflects co-hosted topologies.
	probe := projection.NewAllocation(c.Cabling)
	for _, d := range c.deployments {
		if err := d.Plan.Acquire(probe); err != nil {
			// Should not happen (the live plans are disjoint), but stay honest.
			return fmt.Errorf("controller: internal allocation drift: %v", err)
		}
	}
	_, err := projection.ProjectInto(g, c.Cabling, probe, partition.Options{})
	return err
}

// Deploy projects and installs a topology, returning the deployment
// record with its modelled reconfiguration time.
func (c *Controller) Deploy(g *topology.Graph, opt Options) (*Deployment, error) {
	if _, dup := c.deployments[g.Name]; dup {
		return nil, fmt.Errorf("controller: topology %q already deployed", g.Name)
	}
	plan, err := projection.ProjectInto(g, c.Cabling, c.alloc, partition.Options{})
	if err != nil {
		return nil, err
	}
	strat := opt.Strategy
	if strat == nil {
		strat = routing.ForTopology(g)
	}
	routes, err := strat.Compute(g)
	if err != nil {
		plan.Release(c.alloc)
		return nil, err
	}
	if opt.RequireDeadlockFree {
		if err := routing.VerifyDeadlockFree(routes); err != nil {
			plan.Release(c.alloc)
			return nil, err
		}
	}
	cookie := c.nextCookie + 1
	tagBase := c.tagBase(projection.TagSpace(plan, routes))
	before := c.EntryCount()
	_, err = projection.CompileFlowTables(plan, routes, projection.CompileOptions{
		Encoding: projection.TagEncoded,
		Cookie:   cookie,
		TagBase:  tagBase,
		Into:     c.Physical,
	})
	if err != nil {
		plan.Release(c.alloc)
		// Roll back any partially installed entries.
		for _, sw := range c.Physical {
			sw.Table.RemoveCookie(cookie)
		}
		return nil, err
	}
	c.nextCookie = cookie
	// Only this deployment's entries went in since before. Its routes
	// get no FIB here: nothing in a deployment forwards a packet, and a
	// simulation that does builds it on first use.
	entries := c.EntryCount() - before
	req := projection.Requirement{Method: projection.MethodSDT}
	d := &Deployment{
		Name: g.Name, Topo: g, Plan: plan, Routes: routes,
		Cookie: cookie, TagBase: tagBase, Entries: entries,
		DeployTime: costmodel.ReconfigTime(req, entries),
	}
	c.deployments[g.Name] = d
	return d, nil
}

// tagBase returns the lowest base at which a range of n tags overlaps
// no live deployment's [TagBase, TagBase+TagSpace): a torn-down
// deployment's range is free again, as its ports are. From 0, the
// search jumps past every live range the candidate overlaps; each base
// it skips overlaps that range too, so the first base that overlaps
// none is the lowest, whatever the map order.
func (c *Controller) tagBase(n int) int {
	base := 0
	for moved := true; moved; {
		moved = false
		for _, d := range c.deployments {
			if lo, hi := d.TagBase, d.TagBase+projection.TagSpace(d.Plan, d.Routes); base < hi && lo < base+n {
				base, moved = hi, true
			}
		}
	}
	return base
}

// Teardown removes a deployed topology: its flow entries (by cookie)
// and its physical link allocation.
func (c *Controller) Teardown(name string) error {
	d, ok := c.deployments[name]
	if !ok {
		return fmt.Errorf("controller: topology %q not deployed", name)
	}
	c.remove(d)
	return nil
}

// remove uninstalls d: its entries, its links, its record.
func (c *Controller) remove(d *Deployment) {
	for _, sw := range c.Physical {
		sw.Table.RemoveCookie(d.Cookie)
	}
	d.Plan.Release(c.alloc)
	delete(c.deployments, d.Name)
}

// Reconfigure atomically replaces one deployed topology with another —
// the headline operation of the paper ("the topology (re)configuration
// can be finished in a short time", §I). The returned deployment's
// DeployTime is the modelled reconfiguration latency.
//
// The new topology needs the ports the old one holds, so the old one is
// torn down first; when the new one then cannot be deployed (it does
// not fit the cabling, its routes are not deadlock-free, a flow table
// overflows) the old deployment is put back as it was — same links,
// same entries in the same relative order under the same cookie, same
// record — and the deployment error is returned.
func (c *Controller) Reconfigure(old string, g *topology.Graph, opt Options) (*Deployment, error) {
	prev, ok := c.deployments[old]
	if !ok {
		return nil, fmt.Errorf("controller: topology %q not deployed", old)
	}
	// Table order is match order, so re-installing a switch's entries in
	// the order they are listed reproduces their relative order. Switch
	// i's are saved[ends[i-1]:ends[i]].
	saved := make([]*openflow.FlowEntry, 0, prev.Entries)
	ends := make([]int, len(c.Physical))
	for i, sw := range c.Physical {
		for _, e := range sw.Table.Entries() {
			if e.Cookie == prev.Cookie {
				saved = append(saved, e)
			}
		}
		ends[i] = len(saved)
	}
	c.remove(prev)
	d, err := c.Deploy(g, opt)
	if err == nil {
		return d, nil
	}
	// Deploy left the allocation and the tables as Teardown did, which
	// freed exactly what is re-acquired and re-installed here; a failure
	// below means that invariant broke, and is reported, never masked.
	if rerr := prev.Plan.Acquire(c.alloc); rerr != nil {
		return nil, fmt.Errorf("%w (restoring %q failed: %v)", err, old, rerr)
	}
	// A table may adopt the window it is given, so each window is capped
	// where the next switch's begins.
	lo := 0
	for i, sw := range c.Physical {
		if rerr := sw.Table.Install(saved[lo:ends[i]:ends[i]]); rerr != nil {
			return nil, fmt.Errorf("%w (restoring %q failed: %v)", err, old, rerr)
		}
		lo = ends[i]
	}
	c.deployments[old] = prev
	return nil, err
}

// Deployments lists live deployments sorted by name.
func (c *Controller) Deployments() []*Deployment {
	names := make([]string, 0, len(c.deployments))
	for n := range c.deployments {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Deployment, 0, len(names))
	for _, n := range names {
		out = append(out, c.deployments[n])
	}
	return out
}

// Deployment returns a live deployment by topology name.
func (c *Controller) Deployment(name string) *Deployment {
	return c.deployments[name]
}

// EntryCount reports the total installed flow entries on the cluster.
func (c *Controller) EntryCount() int {
	n := 0
	for _, sw := range c.Physical {
		n += sw.Table.Len()
	}
	return n
}
