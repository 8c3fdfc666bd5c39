package controller

import (
	"fmt"
	"testing"

	"repro/internal/projection"
	"repro/internal/topology"
)

// sizedController plans a cluster sized for g — its port demand over
// 88-port switches plus one spare, the Table IV sizing rule — and
// returns a controller over it.
func sizedController(tb testing.TB, g *topology.Graph) *Controller {
	tb.Helper()
	need := g.SwitchPortCount() + g.HostFacingPorts()
	switches := make([]projection.PhysicalSwitch, (need+87)/88+1)
	for i := range switches {
		switches[i] = projection.H3CS6861(fmt.Sprintf("s6861-%d", i))
	}
	c, err := NewFromTopologies(switches, []*topology.Graph{g})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// deployTeardown deploys g on c and tears it down again.
func deployTeardown(tb testing.TB, c *Controller, g *topology.Graph) {
	if _, err := c.Deploy(g, Options{}); err != nil {
		tb.Fatal(err)
	}
	if err := c.Teardown(g.Name); err != nil {
		tb.Fatal(err)
	}
}

// TestDeployAllocsBounded is the allocation budget of one deployment
// round: Deploy of Torus3D(4,4,4,1) and its Teardown, on a controller
// that has deployed it before. The round allocated 93 085 objects while
// every flow entry and its action list were allocated one by one,
// 10 322 once CompileFlowTables carved them from chunks of up to 256
// entries, and about 5 250 since Cut's restarts, the tables' lookup
// indices and the cable pickers work in reused storage (10 250 just
// before); the rest is mostly route computation and the plan's maps.
func TestDeployAllocsBounded(t *testing.T) {
	g := topology.Torus3D(4, 4, 4, 1)
	c := sizedController(t, g)
	perRound := testing.AllocsPerRun(3, func() { deployTeardown(t, c, g) })
	const limit = 6000
	if perRound > limit {
		t.Errorf("Deploy+Teardown of %s allocates %.0f objects, limit %d", g.Name, perRound, limit)
	}
}

func BenchmarkDeploy(b *testing.B) {
	for _, g := range []*topology.Graph{topology.FatTree(8), topology.Torus3D(4, 4, 4, 1)} {
		b.Run(g.Name, func(b *testing.B) {
			c := sizedController(b, g)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				deployTeardown(b, c, g)
			}
		})
	}
}
