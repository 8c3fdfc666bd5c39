package reconfig

// FuzzReconfigPlan: an arbitrary transition spec must either be
// rejected before any link drains (Schedule/New validation, or a
// per-stage pre-drain rejection) or execute the full staged protocol
// leaving the system consistent — the run's controller holds exactly
// the resident deployment, its plan passes Plan.Check, and after a
// teardown its topology redeploys onto the ports a fresh controller
// gives it: no port leaked by a switchover or a rollback. Every stage
// record must agree with its outcome. CI runs this as a smoke
// (`go test -fuzz=FuzzReconfigPlan -fuzztime=10s`).

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/netsim"
	"repro/internal/partition"
	"repro/internal/projection"
	"repro/internal/routing"
	"repro/internal/topology"
)

var (
	fuzzOnce    sync.Once
	fuzzCab     *projection.Cabling
	errInjected = errors.New("injected validation failure")
)

// fuzzCabling plans one cabling able to host the fat-tree and the small
// torus (targets outside that set exercise the rejection path). The
// cabling is immutable after planning — helpers are pure loops — so one
// instance serves every fuzz iteration.
func fuzzCabling(f *testing.F) *projection.Cabling {
	fuzzOnce.Do(func() {
		cab, err := projection.PlanCabling(
			[]projection.PhysicalSwitch{
				projection.H3CS6861("s6861-a"),
				projection.H3CS6861("s6861-b"),
				projection.H3CS6861("s6861-c"),
			},
			[]*topology.Graph{topology.FatTree(4), topology.Torus2D(4, 4, 1)},
			partition.Options{})
		if err != nil {
			f.Fatal(err)
		}
		fuzzCab = cab
	})
	return fuzzCab
}

func FuzzReconfigPlan(f *testing.F) {
	fuzzCabling(f)
	f.Add(uint8(0), int64(netsim.Millisecond), int64(5*netsim.Millisecond), int64(0), int64(0), int64(0), false)
	f.Add(uint8(1), int64(netsim.Millisecond), int64(0), int64(netsim.Microsecond), int64(netsim.Microsecond), int64(-1), false)
	f.Add(uint8(2), int64(netsim.Millisecond), int64(0), int64(0), int64(0), int64(0), true)
	f.Add(uint8(0), int64(0), int64(-5), int64(-1), int64(7), int64(1<<40), false)
	f.Add(uint8(3), int64(netsim.Millisecond), int64(2*netsim.Millisecond), int64(0), int64(0), int64(0), true)
	f.Add(uint8(0), int64(netsim.Millisecond), int64(0), int64(0), int64(0), int64(0), true) // a fitting target, rolled back
	f.Fuzz(func(t *testing.T, targetSel uint8, at1, at2, drain, install, patch int64, inject bool) {
		g := topology.FatTree(4)
		newTarget := func() *topology.Graph {
			switch targetSel % 4 {
			case 0:
				return topology.Torus2D(4, 4, 1) // fits
			case 1:
				return topology.FatTree(4) // fits (self-transition)
			case 2:
				return topology.Dragonfly(4, 9, 2, 1) // not in the cabling: rejected
			default:
				return topology.FatTree(8) // far too large: rejected
			}
		}
		spec := &Spec{
			Transitions:  []Transition{{At: netsim.Time(at1), Target: newTarget(), Drain: netsim.Time(drain), Install: netsim.Time(install)}},
			PatchLatency: netsim.Time(patch),
		}
		if at2 != 0 {
			spec.Transitions = append(spec.Transitions,
				Transition{At: netsim.Time(at2), Target: newTarget(), Drain: netsim.Time(drain), Install: netsim.Time(install)})
		}
		if inject {
			spec.Transitions[0].Validate = func(*projection.Plan) error {
				return errInjected
			}
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
		rc, err := New(g, fuzzCab, live, spec)
		if err != nil {
			// Rejected before drain: the spec never touched anything.
			return
		}
		rc.Bind(net)
		net.Sim.Run(0)

		for i := range rc.Stages {
			st := &rc.Stages[i]
			switch {
			case st.Outcome == OutcomeCommitted,
				strings.HasPrefix(st.Outcome, OutcomeRolledBack),
				strings.HasPrefix(st.Outcome, OutcomeRejected):
			case st.Outcome == "":
				// Legal only if the engine never reached the stage, which
				// cannot happen here: Run(0) drains the whole queue.
				t.Fatalf("stage %d never resolved: %+v", i, st)
			default:
				t.Fatalf("stage %d has unknown outcome %q", i, st.Outcome)
			}
			// The stage record must agree with its outcome.
			switch {
			case strings.HasPrefix(st.Outcome, OutcomeRejected):
				if len(st.Drained) != 0 || st.TotalChurn() != 0 || st.Lost != 0 || st.Reconvergence() != -1 {
					t.Fatalf("stage %d rejected but touched the fabric: %+v", i, st)
				}
			case strings.HasPrefix(st.Outcome, OutcomeRolledBack):
				if st.RestoreAt != st.CommitAt {
					t.Fatalf("stage %d rolled back at %d but restored at %d", i, st.CommitAt, st.RestoreAt)
				}
			default:
				if st.DrainAt > st.CommitAt || st.CommitAt > st.RestoreAt {
					t.Fatalf("stage %d committed out of order: drain %d, commit %d, restore %d", i, st.DrainAt, st.CommitAt, st.RestoreAt)
				}
			}
			if st.Lost < 0 {
				t.Fatalf("stage %d lost %d packets", i, st.Lost)
			}
		}
		// The resident deployment — whatever committed last, or the
		// original — must be the controller's only one, consistent, and
		// booked on exactly its own ports.
		want := g
		for i := range rc.Stages {
			if rc.Stages[i].Outcome == OutcomeCommitted {
				want = rc.Stages[i].Target
			}
		}
		resident(t, rc, want)
		noLeak(t, rc)
		// Every link must be back up: the protocol restores the fabric
		// whatever the outcome.
		for eid := range g.Edges {
			if net.LinkIsDown(eid) {
				t.Fatalf("link %d left down after the run", eid)
			}
		}
	})
}
