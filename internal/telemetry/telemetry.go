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
	series []LinkSeries // indexed by edge ID
	epochs int
	last   map[*netsim.Network][]float64
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
	series := make([]LinkSeries, len(g.Edges))
	for i, e := range g.Edges {
		series[i] = LinkSeries{A: g.Vertices[e.A].Label, B: g.Vertices[e.B].Label}
	}
	return &Collector{
		Period: period, Alpha: alpha,
		series: series, last: map[*netsim.Network][]float64{},
	}
}

// Collect takes one sample immediately (cumulative counters diffed
// against this network's previous epoch). A collector observes the
// topology it was built for: net must be a fabric of that graph.
func (c *Collector) Collect(net *netsim.Network) {
	loads := net.LinkLoads()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epochs++
	last := c.last[net]
	if last == nil {
		last = make([]float64, len(c.series))
		c.last[net] = last
	}
	for eid, cum := range loads {
		s := &c.series[eid]
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

// Series returns the link series, indexed by edge ID. They are the
// collector's live records; read them after the runs feeding the
// collector have finished.
func (c *Collector) Series() []LinkSeries {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.series
}

// Hottest returns the n links with the highest EWMA load, descending;
// equal loads keep edge-ID order.
func (c *Collector) Hottest(n int) []*LinkSeries {
	series := c.Series()
	all := make([]*LinkSeries, len(series))
	for i := range series {
		all[i] = &series[i]
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].EWMA > all[j].EWMA })
	return all[:min(n, len(all))]
}
