package controller

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"repro/internal/openflow"
	"repro/internal/partition"
	"repro/internal/projection"
	"repro/internal/routing"
	"repro/internal/topology"
)

// h3cCluster returns n H3C S6861-class switches named s6861-0...
func h3cCluster(n int) []projection.PhysicalSwitch {
	sw := make([]projection.PhysicalSwitch, n)
	for i := range sw {
		sw[i] = projection.H3CS6861(fmt.Sprintf("s6861-%d", i))
	}
	return sw
}

// dumpInto writes every switch's table, in match order, into h.
func dumpInto(h hash.Hash, switches []*openflow.Switch) {
	for _, sw := range switches {
		h.Write([]byte(sw.Dump()))
	}
}

// TestCompiledTablesPinned pins every flow entry the controller installs
// — priority, match, actions and order, not only their count — with one
// SHA-256 over the cluster's table dumps:
//
//   - after each step of a seven-topology tour deployed and then
//     reconfigured step by step on six H3C switches;
//   - after FatTree(8) and Torus3D(4,4,4,1), each deployed alone on a
//     cluster sized for it (port demand over 88 ports plus one spare, at
//     least three switches);
//   - §VII-C's k=4 fat-tree on three 64-port switches, compiled both
//     tag-encoded and per-in-port.
//
// A change to the entry layout or to how CompileFlowTables stores
// entries must leave the hash where it is.
func TestCompiledTablesPinned(t *testing.T) {
	const want = "12081fd923aef4bb24db9f40d7024a04f6f21feb54ae23217ef69eaeb2a2e2e2"
	h := sha256.New()

	tour := []*topology.Graph{
		topology.FatTree(4), topology.Dragonfly(4, 9, 2, 1), topology.Torus2D(4, 4, 1),
		topology.Torus3D(3, 3, 3, 1), topology.BCube(4, 1), topology.Mesh2D(5, 5, 1), topology.FatTree(6),
	}
	c, err := NewFromTopologies(h3cCluster(6), tour)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := c.Deploy(tour[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	dumpInto(h, c.Physical)
	for _, next := range tour[1:] {
		if dep, err = c.Reconfigure(dep.Name, next, Options{}); err != nil {
			t.Fatal(err)
		}
		dumpInto(h, c.Physical)
	}

	for _, big := range []*topology.Graph{topology.FatTree(8), topology.Torus3D(4, 4, 4, 1)} {
		need := big.SwitchPortCount() + big.HostFacingPorts()
		c, err := NewFromTopologies(h3cCluster(max((need+87)/88+1, 3)), []*topology.Graph{big})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Deploy(big, Options{}); err != nil {
			t.Fatal(err)
		}
		dumpInto(h, c.Physical)
	}

	g := topology.FatTree(4)
	cab, err := projection.PlanCabling([]projection.PhysicalSwitch{
		projection.Commodity64("a"), projection.Commodity64("b"), projection.Commodity64("c"),
	}, []*topology.Graph{g}, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := projection.Project(g, cab, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	routes, err := routing.FatTreeDFS{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, enc := range []projection.Encoding{projection.TagEncoded, projection.PerInPort} {
		switches, err := projection.CompileFlowTables(plan, routes, projection.CompileOptions{Encoding: enc})
		if err != nil {
			t.Fatal(err)
		}
		dumpInto(h, switches)
	}

	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("compiled tables hash %s, want %s", got, want)
	}
}
