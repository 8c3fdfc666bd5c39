package experiments

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/workload"
)

// cellLimit is a cell's budget of n objects, 30 % more under -race: a
// partition.Cut whose pooled worker was dropped builds a new one, and
// both cells, which count 630 objects, read 640 to 750 there.
func cellLimit(n int) float64 {
	if raceEnabled {
		return 1.3 * float64(n)
	}
	return float64(n)
}

// TestTable4CellAllocsBounded is the allocation budget of one Table IV
// cell: HPCG on 16 ranks of Dragonfly(4,9,2,1), the SDT and the
// full-testbed job Table4 makes for it, on a fresh testbed, with the
// trace built inside the cell. The cell allocated 15 785 objects while
// the trace was copied phase by phase and every queue pair and packet
// refill was an object of its own, 2 640 with traces written in place
// and the packet path in per-Network slabs, 630 once each fabric was
// laid out in per-Network storage, and 519 since the dragonfly route
// index is sized once per compute; the limit leaves 15 % over that.
func TestTable4CellAllocsBounded(t *testing.T) {
	g := topology.Dragonfly(4, 9, 2, 1)
	perCell := testing.AllocsPerRun(2, func() {
		tb, err := testbedSizedFor(g)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := workload.ByName("HPCG", 16)
		if err != nil {
			t.Fatal(err)
		}
		var jobs []core.Job
		for _, mode := range []core.Mode{core.SDT, core.FullTestbed} {
			jobs = append(jobs, core.Job{TB: tb, Scenario: core.Scenario{Topo: g, Trace: tr, Hosts: g.Hosts()[:16], Mode: mode}})
		}
		if _, err := core.Sweep(context.Background(), jobs, core.WithWorkers(1)); err != nil {
			t.Fatal(err)
		}
	})
	if limit := cellLimit(597); perCell > limit {
		t.Errorf("a table4 cell allocates %.0f objects, limit %.0f", perCell, limit)
	}
}

// TestFig13CellAllocsBounded is the allocation budget of one Fig. 13
// point: IMB Alltoall on 8 nodes of Dragonfly(4,9,2,1), 64 KiB over 4
// rounds, on the full testbed and on SDT, testbed included. It
// allocated 6 018 objects before the packet path moved into
// per-Network slabs, 2 507 after, 630 once each fabric was laid out in
// per-Network storage, and 510 since the dragonfly route index is sized
// once per compute; the limit leaves 15 % over that.
func TestFig13CellAllocsBounded(t *testing.T) {
	perCell := testing.AllocsPerRun(2, func() {
		if _, err := Fig13(context.Background(), []int{8}, 64*1024, 4, 1); err != nil {
			t.Fatal(err)
		}
	})
	if limit := cellLimit(587); perCell > limit {
		t.Errorf("a fig13 cell allocates %.0f objects, limit %.0f", perCell, limit)
	}
}
