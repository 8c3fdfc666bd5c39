package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/routing"
	"repro/internal/topology"
)

func init() {
	Register(40, "table3", "Table III: routing strategies with machine-checked deadlock freedom",
		tableSet(func(context.Context, JobSpec) (*Table3Result, error) { return Table3() }))
}

// Table3Row is one topology's routing strategy and deadlock-avoidance
// scheme, verified live against the channel dependency graph.
type Table3Row struct {
	Topology     string
	Strategy     string
	Scheme       string // the paper's "Deadlock Avoidance" column
	Rules        int
	DeadlockFree bool
}

// Table3Result reproduces Table III with machine-checked deadlock
// freedom instead of citations.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 computes and verifies every Table III strategy.
func Table3() (*Table3Result, error) {
	cases := []struct {
		g      *topology.Graph
		name   string
		strat  routing.Strategy
		scheme string
	}{
		{topology.FatTree(4), "Fat-Tree", routing.FatTreeDFS{}, "No need (up-down)"},
		{topology.Dragonfly(4, 9, 2, 1), "Dragonfly", routing.DragonflyMinimal{}, "Changing VC"},
		{topology.Mesh2D(4, 4, 1), "2D-Mesh", routing.MeshXY{}, "By routing (X-Y)"},
		{topology.Mesh3D(3, 3, 3, 1), "3D-Mesh", routing.MeshXYZ{}, "By routing (X-Y-Z)"},
		{topology.Torus2D(5, 5, 1), "2D-Torus", routing.TorusClue{Dims: 2}, "By routing and changing VC"},
		{topology.Torus3D(4, 4, 4, 1), "3D-Torus", routing.TorusClue{Dims: 3}, "By routing and changing VC"},
	}
	res := &Table3Result{}
	for _, c := range cases {
		routes, err := c.strat.Compute(c.g)
		if err != nil {
			return nil, fmt.Errorf("table3: %s: %w", c.name, err)
		}
		free := routing.VerifyDeadlockFree(routes) == nil
		res.Rows = append(res.Rows, Table3Row{
			Topology: c.name, Strategy: routes.Strategy, Scheme: c.scheme,
			Rules: len(routes.Rules), DeadlockFree: free,
		})
	}
	return res, nil
}

// Format prints Table III.
func (r *Table3Result) Format(w io.Writer) {
	writeHeader(w, "Table III: routing strategies and deadlock avoidance")
	fmt.Fprintf(w, "%-11s %-18s %-28s %8s %10s\n", "topology", "strategy", "deadlock avoidance", "rules", "CDG check")
	for _, row := range r.Rows {
		ok := "ACYCLIC"
		if !row.DeadlockFree {
			ok = "CYCLE!"
		}
		fmt.Fprintf(w, "%-11s %-18s %-28s %8d %10s\n", row.Topology, row.Strategy, row.Scheme, row.Rules, ok)
	}
}
