// Package telemetry is the data plane of the SDT controller's Network
// Monitor module (§V-3): "the SDT controller periodically collects
// statistics data in each port of OpenFlow switches through provided
// API. The collected data can be further used to calculate the load of
// each logical switch in the case of adaptive routing."
//
// A Collector samples per-logical-link byte counters on a fixed period
// inside a running simulation, maintaining instantaneous rates, EWMA
// smoothed rates, and peak tracking per link — the inputs adaptive
// (UGAL) routing consumes.
package telemetry

import (
	"sort"
	"sync"

	"repro/internal/netsim"
	"repro/internal/topology"
)

// LinkSeries is the sampled history of one logical link.
type LinkSeries struct {
	EdgeID int
	// Labels of the link endpoints.
	A, B string
	// Samples of bytes transferred in each period (both directions).
	Bytes []int64
	// Peak period bytes seen.
	Peak int64
	// EWMA of the per-period byte counts.
	EWMA float64
}

// Collector samples a simulation's link counters periodically. One
// collector may observe several runs — even concurrent ones (a
// parallel Sweep shares one via WithTelemetry): all methods are
// mutex-guarded, and the cumulative-counter baseline is kept per
// network, so interleaved samples from different simulations diff
// against the right run's counters. A shared collector's series are
// then a sweep-wide aggregate; sample order across concurrent runs is
// scheduling-dependent, so read order-sensitive fields (EWMA) from
// serial runs.
type Collector struct {
	Period netsim.Time
	// Alpha is the EWMA smoothing factor in (0,1]; 1 = no smoothing.
	Alpha float64

	mu     sync.Mutex
	topo   *topology.Graph
	series map[int]*LinkSeries
	epochs int
	last   map[*netsim.Network]map[int]float64
}

// NewCollector builds a collector for a topology with the given period
// (0 means 1 ms) and EWMA alpha (0 means 0.3).
func NewCollector(g *topology.Graph, period netsim.Time, alpha float64) *Collector {
	if period <= 0 {
		period = netsim.Millisecond
	}
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	return &Collector{
		Period: period, Alpha: alpha,
		topo: g, series: map[int]*LinkSeries{}, last: map[*netsim.Network]map[int]float64{},
	}
}

// Collect takes one sample immediately (cumulative counters diffed
// against this network's previous epoch).
func (c *Collector) Collect(net *netsim.Network) {
	loads := net.LinkLoads()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epochs++
	last := c.last[net]
	if last == nil {
		last = map[int]float64{}
		c.last[net] = last
	}
	for eid, cum := range loads {
		s := c.series[eid]
		if s == nil {
			s = &LinkSeries{EdgeID: eid}
			if eid >= 0 && eid < len(c.topo.Edges) {
				e := c.topo.Edges[eid]
				s.A = c.topo.Vertices[e.A].Label
				s.B = c.topo.Vertices[e.B].Label
			}
			c.series[eid] = s
		}
		delta := int64(cum - last[eid])
		last[eid] = cum
		s.Bytes = append(s.Bytes, delta)
		if delta > s.Peak {
			s.Peak = delta
		}
		// Products are rounded explicitly (float64(x*y)) so that no
		// architecture fuses them into the sum.
		s.EWMA = float64(c.Alpha*float64(delta)) + float64((1-c.Alpha)*s.EWMA)
	}
}

// Detach drops the per-network counter baseline once a run is over,
// releasing the reference to the finished fabric (WithTelemetry calls
// this from the run's Finish hook).
func (c *Collector) Detach(net *netsim.Network) {
	c.mu.Lock()
	delete(c.last, net)
	c.mu.Unlock()
}

// Epochs reports how many samples were taken.
func (c *Collector) Epochs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epochs
}

// Series returns the recorded link series sorted by edge ID. The
// returned values are the live series records; read them after the
// runs feeding the collector have finished.
func (c *Collector) Series() []*LinkSeries {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*LinkSeries, 0, len(c.series))
	for _, s := range c.series {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].EdgeID < out[j].EdgeID })
	return out
}

// Hottest returns the n links with the highest EWMA load, descending.
func (c *Collector) Hottest(n int) []*LinkSeries {
	all := c.Series()
	sort.SliceStable(all, func(i, j int) bool { return all[i].EWMA > all[j].EWMA })
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}
