package controller

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

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
// entries, and about 5 250 once Cut's restarts, the tables' lookup
// indices and the cable pickers worked in reused storage. It read about
// 714 while Deploy built the route set's FIB and the compile grew its
// per-switch batches by append, and 331–334 (at GOMAXPROCS 1 to 8, and
// under -race) once the compile sized its storage once, and 306–309
// (311–331 under -race) once ProjectInto's k-search kept its demands in
// storage it reuses and Cut built its work graph in a pooled worker. It
// read 287–306 (309 under -race) once the compile's store was five
// allocations and a table kept the window of the batch it adopted. It
// reads 273–277 (GOMAXPROCS 1 to 8, and under -race) now that a plan is
// one cable per logical link instead of three port maps; the limit adds
// about 10 %. The rest is mostly route computation and the Cut's Result.
func TestDeployAllocsBounded(t *testing.T) {
	g := topology.Torus3D(4, 4, 4, 1)
	c := sizedController(t, g)
	perRound := testing.AllocsPerRun(3, func() { deployTeardown(t, c, g) })
	const limit = 305
	if perRound > limit {
		t.Errorf("Deploy+Teardown of %s allocates %.0f objects, limit %d", g.Name, perRound, limit)
	}
}

// TestDeployBytesBounded is the bytes budget beside the allocation one,
// per flow entry the round installs (28 352 for Torus3D(4,4,4,1)). The
// compile allocates, per entry, the 64-byte entry and its 8-byte place
// in its switch's batch, once, sized by a count; the action lists are
// stored once per (tag, port), a few hundred for the whole compile, and
// each table adopts its window of the batch as its array instead of
// copying it. Route computation adds its 48-byte rules. Measured on
// amd64: 120–123 bytes per entry (GOMAXPROCS 1 to 8, and under -race),
// 121–124 while the plan kept three port maps (about 1 byte per entry);
// the budget adds about 10 % to the higher reading. The round read 143–145 bytes per entry
// while every entry carried its own copy of its two 12-byte actions and
// each table grew an array of its own, and 267 with 88-byte entries and
// 24-byte actions in doubling chunks, batches grown by append and a FIB
// built by every Deploy.
func TestDeployBytesBounded(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the budget is set for 64-bit targets")
	}
	g := topology.Torus3D(4, 4, 4, 1)
	c := sizedController(t, g)
	deployTeardown(t, c, g) // the tables keep their storage from here on
	const rounds = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		deployTeardown(t, c, g)
	}
	runtime.ReadMemStats(&after)
	d, err := c.Deploy(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	perEntry := float64(after.TotalAlloc-before.TotalAlloc) / rounds / float64(d.Entries)
	t.Logf("Deploy+Teardown of %s: %.1f bytes per installed entry", g.Name, perEntry)
	const budget = 135.0
	if perEntry > budget {
		t.Errorf("Deploy+Teardown of %s: %.1f bytes per installed entry, budget %.0f", g.Name, perEntry, budget)
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
