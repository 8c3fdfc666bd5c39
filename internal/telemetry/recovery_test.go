package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/topology"
)

// fabricForRecovery builds a minimal network the tracker can hang off.
func fabricForRecovery(t *testing.T) *netsim.Network {
	t.Helper()
	g := topology.Line(2, 1)
	net, err := netsim.NewNetwork(g, dropAll{}, netsim.DefaultConfig(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

type dropAll struct{}

func (dropAll) Forward(sw, inPort int, pkt *netsim.Packet) (int, int, bool) {
	return 0, 0, false
}

func TestRecoveryTrackerLifecycle(t *testing.T) {
	net := fabricForRecovery(t)
	tr := NewRecoveryTracker(net)

	tr.Fault(100, "link-down e1 @0us")
	tr.Fault(200, "link-down e2 @0us")
	if net.OnDeliver != nil {
		t.Fatal("hook installed before any repair")
	}

	// First repair resolves the earliest fault; a delivery before the
	// second repair must not stamp the second fault.
	tr.Repaired(600, 10)
	if net.OnDeliver == nil {
		t.Fatal("repair did not install the delivery hook")
	}
	net.OnDeliver(650)
	if net.OnDeliver != nil {
		t.Fatal("hook not detached once nothing is pending")
	}
	tr.Repaired(700, 4)
	net.OnDeliver(900)

	rep := tr.Report(3)
	if len(rep.Events) != 2 {
		t.Fatalf("%d events", len(rep.Events))
	}
	e0, e1 := &rep.Events[0], &rep.Events[1]
	if e0.RepairAt != 600 || e0.FirstDeliveryAfter != 650 || e0.RulesChanged != 10 {
		t.Fatalf("event 0 = %+v", e0)
	}
	if e0.Reconvergence() != 550 {
		t.Fatalf("reconvergence 0 = %d", e0.Reconvergence())
	}
	if e1.RepairAt != 700 || e1.FirstDeliveryAfter != 900 || e1.RulesChanged != 4 {
		t.Fatalf("event 1 = %+v", e1)
	}
	if e1.Reconvergence() != 700 {
		t.Fatalf("reconvergence 1 = %d", e1.Reconvergence())
	}
	if rep.TotalChurn() != 14 || rep.Incomplete != 3 {
		t.Fatalf("churn=%d incomplete=%d", rep.TotalChurn(), rep.Incomplete)
	}
	mean, n := rep.MeanReconvergence()
	if n != 2 || mean != (550+700)/2 {
		t.Fatalf("mean=%d n=%d", mean, n)
	}

	var buf bytes.Buffer
	rep.Format(&buf)
	out := buf.String()
	for _, want := range []string{"link-down e1", "link-down e2", "flows incomplete: 3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format output missing %q:\n%s", want, out)
		}
	}
}

func TestRecoveryUnrepairedFault(t *testing.T) {
	net := fabricForRecovery(t)
	tr := NewRecoveryTracker(net)
	tr.Fault(100, "switch-down v1 @0us")
	rep := tr.Report(0)
	e := &rep.Events[0]
	if e.RepairAt != -1 || e.Reconvergence() != -1 {
		t.Fatalf("unrepaired event = %+v", e)
	}
	if mean, n := rep.MeanReconvergence(); n != 0 || mean != -1 {
		t.Fatalf("mean=%d n=%d", mean, n)
	}
}
