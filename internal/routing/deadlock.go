package routing

import (
	"fmt"
	"sort"

	"repro/internal/topology"
)

// Channel is one unidirectional virtual channel of a logical link:
// edge Edge traversed from From, on virtual channel VC.
type Channel struct {
	Edge int
	From int
	VC   int
}

// String renders the channel for cycle reports.
func (c Channel) String() string {
	return fmt.Sprintf("e%d@%d/vc%d", c.Edge, c.From, c.VC)
}

// DependencyGraph is the channel dependency graph (CDG) induced by a
// route set: an edge ch1 -> ch2 whenever some packet may hold ch1 while
// requesting ch2 (Dally & Seitz). In a lossless (PFC) network, a cycle
// in this graph is a potential deadlock.
type DependencyGraph struct {
	Channels []Channel
	index    map[Channel]int
	adj      [][]int
}

func newDependencyGraph() *DependencyGraph {
	return &DependencyGraph{index: map[Channel]int{}}
}

func (d *DependencyGraph) id(c Channel) int {
	if i, ok := d.index[c]; ok {
		return i
	}
	i := len(d.Channels)
	d.Channels = append(d.Channels, c)
	d.index[c] = i
	d.adj = append(d.adj, nil)
	return i
}

func (d *DependencyGraph) addDep(a, b Channel) {
	ia, ib := d.id(a), d.id(b)
	for _, x := range d.adj[ia] {
		if x == ib {
			return
		}
	}
	d.adj[ia] = append(d.adj[ia], ib)
}

// FindCycle returns a channel cycle if one exists, else nil.
func (d *DependencyGraph) FindCycle() []Channel {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, len(d.Channels))
	parent := make([]int, len(d.Channels))
	for i := range parent {
		parent[i] = -1
	}
	// Sorted neighbour order keeps cycle reports deterministic. Rows
	// are sorted once in place up front — addDep order carries no
	// meaning — instead of cloning and re-sorting on every DFS visit.
	for i := range d.adj {
		sort.Ints(d.adj[i])
	}
	var cycleAt, cycleTo int = -1, -1
	var dfs func(v int) bool
	dfs = func(v int) bool {
		color[v] = grey
		for _, w := range d.adj[v] {
			switch color[w] {
			case white:
				parent[w] = v
				if dfs(w) {
					return true
				}
			case grey:
				cycleAt, cycleTo = v, w
				return true
			}
		}
		color[v] = black
		return false
	}
	for v := range d.Channels {
		if color[v] == white && dfs(v) {
			var cyc []Channel
			for x := cycleAt; x != cycleTo; x = parent[x] {
				cyc = append(cyc, d.Channels[x])
			}
			cyc = append(cyc, d.Channels[cycleTo])
			// Reverse into traversal order.
			for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
				cyc[i], cyc[j] = cyc[j], cyc[i]
			}
			return cyc
		}
	}
	return nil
}

// BuildCDG traces every host pair's path under r and accumulates the
// channel dependency graph. It fails if any pair has no complete,
// loop-free route (which is itself a routing bug worth surfacing here).
func BuildCDG(r *Routes) (*DependencyGraph, error) {
	g := r.Topo
	d := newDependencyGraph()
	hosts := g.Hosts()
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			chans, err := traceChannels(r, src, dst)
			if err != nil {
				return nil, err
			}
			for i := 0; i+1 < len(chans); i++ {
				d.addDep(chans[i], chans[i+1])
			}
		}
	}
	return d, nil
}

// traceChannels returns the switch-to-switch channels of the path
// src->dst in order (injection and ejection links are excluded, as
// they cannot participate in routing deadlocks).
func traceChannels(r *Routes, src, dst int) ([]Channel, error) {
	g := r.Topo
	var chans []Channel
	err := r.Walk(src, dst, func(from, edge, tag int) {
		if g.Vertices[from].Kind == topology.Switch && g.Vertices[g.Edges[edge].Other(from)].Kind == topology.Switch {
			chans = append(chans, Channel{Edge: edge, From: from, VC: tag})
		}
	})
	if err != nil {
		return nil, err
	}
	return chans, nil
}

// VerifyDeadlockFree builds the CDG for r and returns an error naming a
// channel cycle if the route set can deadlock under lossless operation.
func VerifyDeadlockFree(r *Routes) error {
	d, err := BuildCDG(r)
	if err != nil {
		return err
	}
	if cyc := d.FindCycle(); cyc != nil {
		return fmt.Errorf("routing: %s: channel dependency cycle: %v", r.Strategy, cyc)
	}
	return nil
}
