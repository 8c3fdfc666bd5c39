package controller

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/openflow"
	"repro/internal/projection"
	"repro/internal/routing"
	"repro/internal/topology"
)

func testbed(t *testing.T, topos ...*topology.Graph) *Controller {
	t.Helper()
	switches := []projection.PhysicalSwitch{
		projection.H3CS6861("s6861-a"),
		projection.H3CS6861("s6861-b"),
		projection.H3CS6861("s6861-c"),
	}
	c, err := NewFromTopologies(switches, topos)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDeployAndTeardown(t *testing.T) {
	ft := topology.FatTree(4)
	c := testbed(t, ft)
	d, err := c.Deploy(ft, Options{RequireDeadlockFree: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.Entries == 0 || c.EntryCount() != d.Entries {
		t.Errorf("entries = %d, cluster = %d", d.Entries, c.EntryCount())
	}
	if d.DeployTime <= 0 || d.DeployTime > 5*time.Second {
		t.Errorf("deploy time = %v, implausible", d.DeployTime)
	}
	if len(c.Deployments()) != 1 {
		t.Errorf("deployments = %d", len(c.Deployments()))
	}
	if err := c.Teardown(ft.Name); err != nil {
		t.Fatal(err)
	}
	if c.EntryCount() != 0 {
		t.Errorf("entries after teardown = %d", c.EntryCount())
	}
	if err := c.Teardown(ft.Name); err == nil {
		t.Error("double teardown accepted")
	}
}

func TestReconfigureBetweenTopologies(t *testing.T) {
	// The paper's core claim: multiple topologies on the same hardware,
	// reconfigured by flow tables only.
	ft := topology.FatTree(4)
	df := topology.Dragonfly(4, 9, 2, 1)
	torus := topology.Torus2D(5, 5, 1)
	c := testbed(t, ft, df, torus)
	if _, err := c.Deploy(ft, Options{RequireDeadlockFree: true}); err != nil {
		t.Fatal(err)
	}
	d2, err := c.Reconfigure(ft.Name, df, Options{RequireDeadlockFree: true})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Name != df.Name {
		t.Errorf("reconfigured to %q", d2.Name)
	}
	d3, err := c.Reconfigure(df.Name, torus, Options{RequireDeadlockFree: true})
	if err != nil {
		t.Fatal(err)
	}
	// Reconfiguration must be fast — subseconds, not SP's manual hours.
	if d3.DeployTime > 10*time.Second {
		t.Errorf("reconfig time = %v", d3.DeployTime)
	}
	if len(c.Deployments()) != 1 {
		t.Errorf("deployments = %d, want 1", len(c.Deployments()))
	}
}

func TestCheckRejectsOversized(t *testing.T) {
	small := topology.Line(4, 1)
	c := testbed(t, small)
	big := topology.FatTree(8)
	if err := c.Check(big); err == nil {
		t.Error("oversized topology passed Check")
	}
	if err := c.Check(small); err != nil {
		t.Errorf("planned topology failed Check: %v", err)
	}
	bad := topology.New("bad")
	bad.AddSwitch("x")
	bad.AddSwitch("x")
	if err := c.Check(bad); err == nil {
		t.Error("invalid topology passed Check")
	}
}

func TestDeployRejectsDeadlockableRoutes(t *testing.T) {
	ring := topology.Ring(6, 1)
	c := testbed(t, ring)
	// Shortest-path on an even ring creates a channel cycle.
	_, err := c.Deploy(ring, Options{
		Strategy:            routing.ShortestPath{},
		RequireDeadlockFree: true,
	})
	if err == nil {
		t.Skip("shortest-path on this ring happens to be acyclic; acceptable")
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Errorf("unexpected error: %v", err)
	}
	// Without the lossless requirement it deploys.
	if _, err := c.Deploy(ring, Options{Strategy: routing.ShortestPath{}}); err != nil {
		t.Errorf("lossy deploy failed: %v", err)
	}
}

func TestDuplicateDeployRejected(t *testing.T) {
	ft := topology.FatTree(4)
	c := testbed(t, ft)
	if _, err := c.Deploy(ft, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy(ft, Options{}); err == nil {
		t.Error("duplicate deploy accepted")
	}
}

func TestCoHostedDeployments(t *testing.T) {
	a := topology.Line(3, 1)
	b := topology.Ring(4, 1)
	// Plan for a combined workload: a line with enough spare links.
	c := testbed(t, topology.Line(10, 4))
	da, err := c.Deploy(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := c.Deploy(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if da.Cookie == db.Cookie {
		t.Error("co-hosted deployments share a cookie")
	}
	if db.TagBase <= da.TagBase {
		t.Error("tag bases not disjoint")
	}
	if err := c.Teardown(a.Name); err != nil {
		t.Fatal(err)
	}
	// B must survive A's teardown.
	if c.Deployment(b.Name) == nil || c.EntryCount() == 0 {
		t.Error("B disturbed by A teardown")
	}
}

// TestEntriesMatchDirectCompile: a deployment's Entries is what its
// compile installs, also when it lands beside a live deployment.
func TestEntriesMatchDirectCompile(t *testing.T) {
	for _, tc := range []struct {
		planFor *topology.Graph
		deploy  []*topology.Graph
	}{
		{topology.FatTree(4), []*topology.Graph{topology.FatTree(4)}},
		{topology.Line(10, 4), []*topology.Graph{topology.Line(3, 1), topology.Ring(4, 1)}},
	} {
		c := testbed(t, tc.planFor)
		for _, g := range tc.deploy {
			d, err := c.Deploy(g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			switches, err := projection.CompileFlowTables(d.Plan, d.Routes, projection.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if projection.EntryCount(switches) != d.Entries {
				t.Errorf("%s: controller entries %d != direct compile %d", g.Name, d.Entries, projection.EntryCount(switches))
			}
		}
	}
}

// tableDump renders every physical table, in match order, so two dumps
// are equal only if the same entries sit in the same order.
func tableDump(c *Controller) string {
	var b strings.Builder
	for _, sw := range c.Physical {
		b.WriteString(sw.Dump())
	}
	return b.String()
}

// TestReconfigureFailureRestoresOldDeployment pins "atomically": when
// the replacement cannot be deployed — it does not fit the cabling, its
// routes can deadlock, a flow table overflows — Reconfigure returns the
// error and the previous deployment is back exactly as it was.
func TestReconfigureFailureRestoresOldDeployment(t *testing.T) {
	ft := topology.FatTree(4)
	ring := topology.Ring(6, 1)
	cases := []struct {
		name    string
		planFor []*topology.Graph
		target  *topology.Graph
		opt     Options
		// shrinkTables caps every table at the old deployment's size + 10
		// so the target's entries overflow mid-install.
		shrinkTables bool
	}{
		{name: "does not fit the cabling", planFor: []*topology.Graph{ft}, target: topology.FatTree(8)},
		{name: "routes not deadlock-free", planFor: []*topology.Graph{ft, ring}, target: ring,
			opt: Options{Strategy: routing.ShortestPath{}, RequireDeadlockFree: true}},
		{name: "flow table overflows", planFor: []*topology.Graph{ft, topology.Dragonfly(4, 9, 2, 1)},
			target: topology.Dragonfly(4, 9, 2, 1), shrinkTables: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := testbed(t, tc.planFor...)
			old, err := c.Deploy(ft, Options{RequireDeadlockFree: true})
			if err != nil {
				t.Fatal(err)
			}
			if tc.shrinkTables {
				for _, sw := range c.Physical {
					sw.Table.Capacity = sw.Table.Len() + 10
				}
			}
			entries, dump := c.EntryCount(), tableDump(c)
			self, inter, host := c.alloc.UsedCounts()

			d, err := c.Reconfigure(ft.Name, tc.target, tc.opt)
			if err == nil {
				t.Fatalf("Reconfigure to %s succeeded (%d entries); the case is not a failure case", tc.target.Name, d.Entries)
			}
			if got := c.Deployment(ft.Name); got != old {
				t.Fatalf("after failed Reconfigure (%v): Deployment(%q) = %v, want the old record", err, ft.Name, got)
			}
			if got := c.EntryCount(); got != entries {
				t.Errorf("EntryCount = %d, want %d", got, entries)
			}
			if got := tableDump(c); got != dump {
				t.Errorf("tables differ after rollback:\n%s\nwant:\n%s", got, dump)
			}
			if s, i, h := c.alloc.UsedCounts(); s != self || i != inter || h != host {
				t.Errorf("allocation = %d self, %d inter, %d host; want %d, %d, %d", s, i, h, self, inter, host)
			}
			if err := old.Plan.Check(); err != nil {
				t.Errorf("Plan.Check: %v", err)
			}
			// The restored deployment is a working one: it forwards…
			h := ft.Hosts()
			src, dst := h[0], h[len(h)-1]
			at, _ := old.Plan.HostPort(src)
			if fwd := c.Physical[at.Switch].Process(openflow.PacketMeta{InPort: at.Port, SrcHost: src, DstHost: dst}); !fwd.Matched || fwd.Dropped {
				t.Errorf("restored tables drop %d→%d at its ingress switch: %+v", src, dst, fwd)
			}
			// …and can be torn down to nothing.
			if err := c.Teardown(ft.Name); err != nil {
				t.Fatalf("Teardown after rollback: %v", err)
			}
			if got := c.EntryCount(); got != 0 {
				t.Errorf("entries after teardown = %d, want 0", got)
			}
		})
	}
}

// TestCheckAgreesWithDeploy: with two co-hosted deployments live, Check
// accepts a third topology exactly when Deploy would install it — it
// fits beside them and its name is free — and leaves the controller's
// allocation, tables and deployments as they were.
func TestCheckAgreesWithDeploy(t *testing.T) {
	c := testbed(t, topology.Line(10, 4))
	for _, g := range []*topology.Graph{topology.Line(3, 1), topology.Ring(4, 1)} {
		if _, err := c.Deploy(g, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	accepted, rejected := 0, 0
	for _, g := range []*topology.Graph{
		topology.Line(2, 1), topology.Line(4, 1), topology.Ring(3, 1),
		topology.Line(5, 1), topology.Ring(5, 1), topology.Line(6, 2), topology.FatTree(4),
		topology.Line(3, 3), // fits beside the live two, but its name "line-3" is taken
	} {
		live, dump := c.Deployments(), tableDump(c)
		self, inter, host := c.alloc.UsedCounts()
		checkErr := c.Check(g)
		if s, i, h := c.alloc.UsedCounts(); s != self || i != inter || h != host {
			t.Fatalf("Check(%s) moved the allocation: %d/%d/%d, was %d/%d/%d", g.Name, s, i, h, self, inter, host)
		}
		if got := c.Deployments(); !slices.Equal(got, live) || tableDump(c) != dump {
			t.Fatalf("Check(%s) changed the deployments or the tables", g.Name)
		}
		_, deployErr := c.Deploy(g, Options{})
		if (checkErr == nil) != (deployErr == nil) {
			t.Fatalf("%s: Check says %v, Deploy says %v", g.Name, checkErr, deployErr)
		}
		if deployErr != nil {
			rejected++
			continue
		}
		accepted++
		if err := c.Teardown(g.Name); err != nil {
			t.Fatal(err)
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("fixture: %d candidates accepted, %d rejected; want some of each", accepted, rejected)
	}
}

// TestTagRangesReleased: a torn-down deployment's tag range is free
// again, as its ports are. Forty reconfigurations alternating a
// fat-tree and a torus keep every TagBase within one topology's
// TagSpace, and a deployment beside live ones takes the lowest gap
// that fits.
func TestTagRangesReleased(t *testing.T) {
	ft, tor := topology.FatTree(4), topology.Torus2D(4, 4, 1)
	c := testbed(t, ft, tor)
	cur, err := c.Deploy(ft, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		next := tor
		if cur.Topo == tor {
			next = ft
		}
		if cur, err = c.Reconfigure(cur.Name, next, Options{}); err != nil {
			t.Fatal(err)
		}
		if space := projection.TagSpace(cur.Plan, cur.Routes); cur.TagBase > space {
			t.Fatalf("reconfiguration %d: %s at TagBase %d, past its TagSpace %d", i+1, cur.Name, cur.TagBase, space)
		}
	}

	c = testbed(t, topology.Line(10, 4))
	base := func(g *topology.Graph) int {
		t.Helper()
		d, err := c.Deploy(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return d.TagBase
	}
	// line-3 takes [0, 4), ring-4 [4, 9); line-3's teardown frees [0, 4).
	if a, b := base(topology.Line(3, 1)), base(topology.Ring(4, 1)); a != 0 || b != 4 {
		t.Fatalf("TagBases %d and %d, want 0 and 4", a, b)
	}
	if err := c.Teardown("line-3"); err != nil {
		t.Fatal(err)
	}
	// line-2 needs 3 tags and fits the freed gap; line-4 needs 5 and
	// goes past ring-4.
	if a, b := base(topology.Line(2, 1)), base(topology.Line(4, 1)); a != 0 || b != 9 {
		t.Errorf("TagBases %d and %d, want 0 (the freed gap) and 9 (past ring-4)", a, b)
	}
}
