package telemetry

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/topology"
)

func lineNet(t *testing.T) (*netsim.Network, *topology.Graph) {
	t.Helper()
	g := topology.Line(4, 1)
	routes, err := routing.ShortestPath{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	net, err := netsim.NewNetwork(g, netsim.NewRouteForwarder(routes), netsim.DefaultConfig(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	return net, g
}

// sample drives the collector the way core.WithTelemetry does: one
// Collect per period of simulated time, for the given number of epochs.
func sample(net *netsim.Network, col *Collector, epochs int) {
	for i := 1; i <= epochs; i++ {
		net.Sim.Run(netsim.Time(i) * col.Period)
		col.Collect(net)
	}
}

func TestCollectorSamplesPeriodically(t *testing.T) {
	net, g := lineNet(t)
	col := NewCollector(g, netsim.Millisecond, 0.5)
	hosts := g.Hosts()
	net.Host(hosts[0]).Send(hosts[3], 1, 8<<20) // ~6.7 ms at 10G
	sample(net, col, 10)
	if col.Epochs() < 8 {
		t.Fatalf("epochs = %d, want ~10", col.Epochs())
	}
	series := col.Series()
	if len(series) == 0 {
		t.Fatal("no link series")
	}
	// The s0-s1 link must be hot; an unused link (s2-s3 is used too on
	// the path... host3's own link) has traffic; an off-path host link
	// (host at s1) must be idle.
	hot := col.Hottest(1)[0]
	if hot.Peak == 0 || hot.EWMA == 0 {
		t.Errorf("hottest link has no load: %+v", hot)
	}
	idleFound := false
	for _, s := range series {
		if s.Peak == 0 {
			idleFound = true
		}
	}
	if !idleFound {
		t.Error("no idle link found; expected off-path host links idle")
	}
}

func TestCollectorPeakIsLineRate(t *testing.T) {
	net, g := lineNet(t)
	col := NewCollector(g, netsim.Millisecond, 1.0) // no smoothing
	hosts := g.Hosts()
	net.Host(hosts[0]).Send(hosts[3], 1, 4<<20)
	sample(net, col, 3)
	// A saturated 10 Gbps link moves 1.25e6 bytes per 1 ms epoch.
	peak := col.Hottest(1)[0].Peak
	if peak < 0.9e6 || peak > 1.4e6 {
		t.Errorf("peak epoch = %d B, want ~1.25e6", peak)
	}
}

func TestCollectorFeedsUGAL(t *testing.T) {
	g := topology.Dragonfly(4, 9, 2, 1)
	routes, err := routing.DragonflyMinimal{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	net, err := netsim.NewNetwork(g, netsim.NewRouteForwarder(routes), netsim.DefaultConfig(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	for i := 0; i < 4; i++ {
		net.Host(hosts[i]).Send(hosts[4+i], 1, 2<<20) // group 0 -> group 1
	}
	col := NewCollector(g, netsim.Millisecond, 0.5)
	sample(net, col, 5)
	loads := make([]float64, len(g.Edges))
	for eid, s := range col.Series() {
		loads[eid] = s.EWMA
	}
	ugal := routing.DragonflyUGAL{Loads: loads, Bias: 1}
	r, err := ugal.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := routing.VerifyDeadlockFree(r); err != nil {
		t.Error(err)
	}
}

func TestCollectorDefaults(t *testing.T) {
	g := topology.Line(2, 1)
	c := NewCollector(g, 0, 0)
	if c.Period != netsim.Millisecond || c.Alpha != 0.3 {
		t.Errorf("defaults = %v/%v", c.Period, c.Alpha)
	}
}
