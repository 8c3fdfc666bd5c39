package reconfig

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/controller"
	"repro/internal/netsim"
	"repro/internal/partition"
	"repro/internal/projection"
	"repro/internal/routing"
	"repro/internal/topology"
)

// fixture builds a paper-style cabling hosting both topologies, the
// running fabric's route clone, and a network with no traffic — enough
// to drive the full stage protocol through the engine.
func fixture(t *testing.T, g, target *topology.Graph) (*projection.Cabling, *routing.Routes, *netsim.Network) {
	t.Helper()
	switches := []projection.PhysicalSwitch{
		projection.H3CS6861("s6861-a"),
		projection.H3CS6861("s6861-b"),
		projection.H3CS6861("s6861-c"),
	}
	topos := []*topology.Graph{g}
	if target != nil {
		topos = append(topos, target)
	}
	cab, err := projection.PlanCabling(switches, topos, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	routes, err := routing.ForTopology(g).Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	live := routes.Clone()
	live.Prime()
	net, err := netsim.NewNetwork(g, netsim.NewRouteForwarder(live), netsim.DefaultConfig(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	return cab, live, net
}

// resident asserts the run's controller holds exactly one deployment,
// the Reconfigurer's current one, of topology want, and that its plan
// passes Plan.Check.
func resident(t testing.TB, r *Reconfigurer, want *topology.Graph) *controller.Deployment {
	t.Helper()
	ds := r.ctl.Deployments()
	if len(ds) != 1 || ds[0] != r.cur || ds[0].Topo != want {
		names := make([]string, len(ds))
		for i, d := range ds {
			names[i] = d.Name
		}
		t.Fatalf("controller holds %v, want exactly the resident %q", names, want.Name)
	}
	if err := ds[0].Plan.Check(); err != nil {
		t.Fatalf("resident plan fails check: %v", err)
	}
	return ds[0]
}

// noLeak tears the resident deployment down and deploys its topology
// again: the plan must take the same physical ports as a deploy on a
// fresh controller over the same cabling, which a port the run leaked
// would move.
func noLeak(t testing.TB, r *Reconfigurer) {
	t.Helper()
	d := r.cur
	opt := controller.Options{Strategy: routing.Fixed{Routes: d.Routes}}
	if err := r.ctl.Teardown(d.Name); err != nil {
		t.Fatal(err)
	}
	again, err := r.ctl.Deploy(d.Topo, opt)
	if err != nil {
		t.Fatalf("redeploy after teardown: %v", err)
	}
	fresh, err := controller.New(r.ctl.Cabling).Deploy(d.Topo, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Plan, fresh.Plan) { // the same partition and the same cable per logical link
		t.Fatalf("redeploying %q after teardown takes other ports than a fresh controller: the run leaked ports", d.Name)
	}
}

func TestScheduleValidation(t *testing.T) {
	g := topology.FatTree(4)
	tgt := topology.Torus2D(4, 4, 1)
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"nil target", Spec{Transitions: []Transition{{At: netsim.Millisecond}}}, "nil target"},
		{"non-positive time", Spec{Transitions: []Transition{{At: 0, Target: tgt}}}, "non-positive time"},
		{"negative window", Spec{Transitions: []Transition{{At: netsim.Millisecond, Target: tgt, Drain: -1}}}, "negative stage window"},
		{"overlap", Spec{Transitions: []Transition{
			{At: netsim.Millisecond, Target: tgt},
			{At: netsim.Millisecond + DefaultDrain, Target: tgt},
		}}, "inside the previous"},
	}
	for _, tc := range cases {
		if _, err := tc.spec.Schedule(g); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}

	// A valid spec resolves defaulted stage times deterministically.
	spec := &Spec{Transitions: []Transition{{At: 2 * netsim.Millisecond, Target: tgt}}}
	stages, err := spec.Schedule(g)
	if err != nil {
		t.Fatal(err)
	}
	st := stages[0]
	if st.CommitAt != st.DrainAt+DefaultDrain || st.RestoreAt != st.CommitAt+DefaultInstall {
		t.Fatalf("stage times = %+v", st)
	}
	if st.PatchAt != st.DrainAt+DefaultPatchLatency {
		t.Fatalf("patch at %d, want drain+%d", st.PatchAt, DefaultPatchLatency)
	}

	// Patch disabled by a negative latency or one at/past the drain
	// window.
	for _, s := range []*Spec{
		{Transitions: spec.Transitions, PatchLatency: -1},
		{Transitions: spec.Transitions, PatchLatency: DefaultDrain},
	} {
		stages, err := s.Schedule(g)
		if err != nil {
			t.Fatal(err)
		}
		if stages[0].PatchAt != -1 {
			t.Fatalf("PatchLatency %d: patch not disabled", s.PatchLatency)
		}
	}

	// The zero spec is valid and schedules nothing.
	if stages, err := (&Spec{}).Schedule(g); err != nil || len(stages) != 0 {
		t.Fatalf("zero spec: %v, %d stages", err, len(stages))
	}
}

// TestCommitProtocol drives a fat-tree → torus transition through the
// engine and checks every stage effect: links drained then restored,
// degraded rules swapped then the originals back, the target committed
// with cost columns, and the controller left holding exactly the
// target's deployment.
func TestCommitProtocol(t *testing.T) {
	g := topology.FatTree(4)
	target := topology.Torus2D(4, 4, 1)
	cab, live, net := fixture(t, g, target)
	spec := &Spec{Transitions: []Transition{{At: netsim.Millisecond, Target: target}}}
	rc, err := New(g, cab, live, spec)
	if err != nil {
		t.Fatal(err)
	}
	st := &rc.Stages[0]
	if st.Outcome != "" {
		t.Fatalf("pre-rejected: %s", st.Outcome)
	}
	if len(st.Drained) == 0 {
		t.Fatal("no drained links: the target claims none of the running topology's cables")
	}

	rc.Bind(net)
	drainedDown := probeDrained(net, st)
	net.Sim.Run(0)

	if *drainedDown != len(st.Drained) {
		t.Fatalf("%d/%d drained links down", *drainedDown, len(st.Drained))
	}
	if st.PatchChurn == 0 || st.RestoreChurn == 0 {
		t.Fatalf("no rule churn: patch=%d restore=%d", st.PatchChurn, st.RestoreChurn)
	}
	if st.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %q", st.Outcome)
	}
	if st.Lost != 0 || st.Reconvergence() != -1 {
		t.Fatalf("a fabric without traffic lost %d, reconverged in %d", st.Lost, st.Reconvergence())
	}
	if st.Entries <= 0 || st.ReconfigTime <= 0 || st.HardwareCost <= 0 {
		t.Fatalf("cost columns = %d entries, %v, $%v", st.Entries, st.ReconfigTime, st.HardwareCost)
	}
	if d := resident(t, rc, target); st.Entries != d.Entries || st.ReconfigTime != d.DeployTime {
		t.Fatalf("stage records %d entries in %v, the deployment %d in %v", st.Entries, st.ReconfigTime, d.Entries, d.DeployTime)
	}
	noLeak(t, rc)
	for _, e := range st.Drained {
		if net.LinkIsDown(e) {
			t.Fatalf("link %d still down after reconverge", e)
		}
	}
	if churn := routing.Churn(live.Rules, freshRules(t, g)); churn != 0 {
		t.Fatalf("live rules differ from the strategy's after restore: churn=%d", churn)
	}
}

// probeDrained schedules a check halfway between the stage's drain and
// commit; the count it returns is how many drained links it found down.
func probeDrained(net *netsim.Network, st *Stage) *int {
	down := new(int)
	net.Sim.At((st.DrainAt+st.CommitAt)/2, func() {
		for _, e := range st.Drained {
			if net.LinkIsDown(e) {
				*down++
			}
		}
	})
	return down
}

// TestStageRecordSemantics pins the sentinel arithmetic: rejected
// stages and unclosed windows report no reconvergence, and closed ones
// measure drain → first delivery and sum both churns.
func TestStageRecordSemantics(t *testing.T) {
	rejected := Stage{Outcome: OutcomeRejected + ": no fit", DrainAt: 100, RestoreAt: 300, FirstDeliveryAfter: -1}
	if rejected.Reconvergence() != -1 || rejected.TotalChurn() != 0 {
		t.Fatalf("rejected: reconv=%d churn=%d", rejected.Reconvergence(), rejected.TotalChurn())
	}
	open := Stage{Outcome: OutcomeCommitted, DrainAt: 100, RestoreAt: 300, FirstDeliveryAfter: -1, Lost: 3}
	if open.Reconvergence() != -1 {
		t.Fatalf("open window: reconv=%d", open.Reconvergence())
	}
	closed := Stage{
		Outcome: OutcomeCommitted, DrainAt: 100, RestoreAt: 300, FirstDeliveryAfter: 450,
		Lost: 7, PatchChurn: 4, RestoreChurn: 6,
	}
	if closed.Reconvergence() != 350 || closed.TotalChurn() != 10 {
		t.Fatalf("closed window: reconv=%d churn=%d", closed.Reconvergence(), closed.TotalChurn())
	}
}

// TestStageDeliveryLifecycle: the restore arms delivery capture, the
// first delivery after it stamps the stage, and later deliveries leave
// the stamp alone.
func TestStageDeliveryLifecycle(t *testing.T) {
	g := topology.FatTree(4)
	target := topology.Torus2D(4, 4, 1)
	cab, live, net := fixture(t, g, target)
	spec := &Spec{Transitions: []Transition{{At: netsim.Millisecond, Target: target}}}
	rc, err := New(g, cab, live, spec)
	if err != nil {
		t.Fatal(err)
	}
	st := &rc.Stages[0]
	rc.Bind(net)
	hosts := g.Hosts()
	send := func() { net.Host(hosts[0]).Send(hosts[len(hosts)-1], 1, 1<<10) }
	stampedEarly := true
	first := netsim.Time(-1)
	net.Sim.At(st.RestoreAt+1, func() {
		stampedEarly = st.FirstDeliveryAfter != -1
		net.AwaitDelivery(func(now netsim.Time) {
			if first < 0 {
				first = now
			}
		})
		send()
	})
	net.Sim.At(st.RestoreAt+netsim.Millisecond, send)
	net.Sim.Run(0)
	if stampedEarly {
		t.Fatal("stage stamped before any delivery")
	}
	if st.Outcome != OutcomeCommitted || first <= st.RestoreAt || st.FirstDeliveryAfter != first ||
		st.Reconvergence() != st.FirstDeliveryAfter-st.DrainAt {
		t.Fatalf("stage record = %+v, first delivery after restore at %d", st, first)
	}
}

// freshRules recomputes the strategy rules for comparison.
func freshRules(t *testing.T, g *topology.Graph) []routing.Rule {
	t.Helper()
	r, err := routing.ForTopology(g).Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	return r.Rules
}

// TestRollbackOnValidateFailure: an injected Plan.Check-stage failure
// aborts the transition; the fabric and the controller return to the
// old topology — the same ports and entry count as before — and the run
// completes.
func TestRollbackOnValidateFailure(t *testing.T) {
	g := topology.FatTree(4)
	target := topology.Torus2D(4, 4, 1)
	cab, live, net := fixture(t, g, target)
	injected := errors.New("injected plan-check failure")
	spec := &Spec{Transitions: []Transition{{
		At: netsim.Millisecond, Target: target,
		Validate: func(*projection.Plan) error { return injected },
	}}}
	rc, err := New(g, cab, live, spec)
	if err != nil {
		t.Fatal(err)
	}
	st := &rc.Stages[0]
	before := rc.cur
	rc.Bind(net)
	drainedDown := probeDrained(net, st)
	net.Sim.Run(0)

	if !strings.HasPrefix(st.Outcome, OutcomeRolledBack) || !strings.Contains(st.Outcome, "injected") {
		t.Fatalf("outcome = %q", st.Outcome)
	}
	if len(st.Drained) == 0 || *drainedDown != len(st.Drained) {
		t.Fatalf("%d/%d drained links down", *drainedDown, len(st.Drained))
	}
	if st.RestoreAt != st.CommitAt || st.Entries != 0 || st.RestoreChurn != st.PatchChurn {
		t.Fatalf("rollback record = %+v", st)
	}
	d := resident(t, rc, g)
	if !reflect.DeepEqual(d.Plan, before.Plan) || d.Entries != before.Entries {
		t.Fatalf("restored deployment has %d entries on other ports than before the transition (%d entries)", d.Entries, before.Entries)
	}
	noLeak(t, rc)
	for _, e := range st.Drained {
		if net.LinkIsDown(e) {
			t.Fatalf("link %d still down after rollback", e)
		}
	}
	if churn := routing.Churn(live.Rules, freshRules(t, g)); churn != 0 {
		t.Fatalf("live rules not restored after rollback: churn=%d", churn)
	}
}

// TestRejectBeforeDrain: a target that cannot be projected at all is
// rejected at New time and never touches the fabric.
func TestRejectBeforeDrain(t *testing.T) {
	g := topology.FatTree(4)
	cab, live, net := fixture(t, g, nil) // cabling planned for g only
	spec := &Spec{Transitions: []Transition{{At: netsim.Millisecond, Target: topology.FatTree(8)}}}
	rc, err := New(g, cab, live, spec)
	if err != nil {
		t.Fatal(err)
	}
	st := &rc.Stages[0]
	if !strings.HasPrefix(st.Outcome, OutcomeRejected) || len(st.Drained) != 0 {
		t.Fatalf("outcome = %q, drained = %v", st.Outcome, st.Drained)
	}
	rc.Bind(net)
	net.Sim.Run(0)
	if n := net.Sim.Events(); n != 0 {
		t.Fatalf("a rejected stage scheduled %d events", n)
	}
	if st.TotalChurn() != 0 || st.Lost != 0 || st.Reconvergence() != -1 {
		t.Fatalf("rejected record = %+v", st)
	}
	for eid := range g.Edges {
		if net.LinkIsDown(eid) {
			t.Fatalf("rejected transition drained link %d", eid)
		}
	}
	resident(t, rc, g)
	noLeak(t, rc)
}

// TestDrainSetDeterministic: equal inputs give byte-identical schedules
// and drained sets across repeated construction.
func TestDrainSetDeterministic(t *testing.T) {
	g := topology.FatTree(4)
	target := topology.Dragonfly(4, 9, 2, 1)
	var digests []string
	for rep := 0; rep < 2; rep++ {
		cab, live, _ := fixture(t, g, target)
		spec := &Spec{Transitions: []Transition{{At: netsim.Millisecond, Target: target}}}
		rc, err := New(g, cab, live, spec)
		if err != nil {
			t.Fatal(err)
		}
		var d string
		for _, st := range rc.Stages {
			d += fmt.Sprintf("%s drain=%v commit@%d restore@%d %s\n", st.Desc, st.Drained, st.CommitAt, st.RestoreAt, st.Outcome)
		}
		digests = append(digests, d)
	}
	if digests[0] != digests[1] {
		t.Fatalf("drain schedule diverged:\n%s\nvs\n%s", digests[0], digests[1])
	}
}
