package routing

// FuzzFIBLookup: the compiled FIB's forwarding decision must agree with
// the one the reference Routes.Lookup's rule implies, and Lookup with
// its own reference — the map-backed
// index of oracle_test.go, since FIB and Lookup are built from the same
// flat index — on EVERY (switch, inPort, dst, tag) tuple — including
// hostile ones (negative IDs, out-of-range vertices, absurd tags) —
// across every Table III strategy and a manual rule set exercising the
// spill path and rules off the graph, which all three must miss. The
// differential tests in fib_test.go and oracle_test.go pin the
// reachable tuples; the fuzzer hunts the unreachable corners.
// CI runs this as a smoke (`go test -fuzz=FuzzFIBLookup -fuzztime=10s`).

import (
	"sync"
	"testing"

	"repro/internal/openflow"
	"repro/internal/topology"
)

// fuzzCtx is one (topology, routes) pair with its FIB pre-compiled and
// the reference index over the same rules.
type fuzzCtx struct {
	name   string
	routes *Routes
	ref    mapIndex
}

var (
	fuzzOnce sync.Once
	fuzzCtxs []fuzzCtx
)

func fuzzContexts(f *testing.F) []fuzzCtx {
	fuzzOnce.Do(func() {
		for _, g := range []*topology.Graph{
			topology.FatTree(4),
			topology.Dragonfly(4, 9, 2, 1),
			topology.Torus2D(4, 4, 1),
			topology.Mesh2D(3, 3, 1),
		} {
			r, err := ForTopology(g).Compute(g)
			if err != nil {
				f.Fatal(err)
			}
			r.Prime()
			fuzzCtxs = append(fuzzCtxs, fuzzCtx{g.Name, r, buildIndexReference(r.Rules, len(g.Vertices))})
		}
		// A manual set with qualified rules (spill path) and rules whose
		// switch or destination is not a vertex (matching nothing).
		g := topology.Line(4, 1)
		m := NewManualRoutes(g, "fuzz-manual", 2)
		m.AddRule(Rule{Switch: 0, Dst: 4, Tag: openflow.Any, OutPort: 1, NewTag: -1})
		m.AddRule(Rule{Switch: 0, InPort: 2, Dst: 4, Tag: openflow.Any, OutPort: 3, NewTag: -1})
		m.AddRule(Rule{Switch: 1, Dst: 5, Tag: 1, OutPort: 2, NewTag: 0})
		m.AddRule(Rule{Switch: 1, Dst: 5, Tag: openflow.Any, OutPort: 4, NewTag: 1})
		m.AddRule(Rule{Switch: 99, Dst: 120, Tag: openflow.Any, OutPort: 7, NewTag: -1})
		m.AddRule(Rule{Switch: -3, Dst: 2, Tag: openflow.Any, OutPort: 9, NewTag: -1})
		m.Prime()
		fuzzCtxs = append(fuzzCtxs, fuzzCtx{"manual", m, buildIndexReference(m.Rules, len(g.Vertices))})
	})
	return fuzzCtxs
}

func FuzzFIBLookup(f *testing.F) {
	ctxs := fuzzContexts(f)
	f.Add(uint8(0), 0, 0, 5, 0)
	f.Add(uint8(1), 3, 1, 40, 1)
	f.Add(uint8(2), 7, 2, 17, 2)
	f.Add(uint8(3), 4, 0, 9, 0)
	f.Add(uint8(4), 99, 0, 120, 5)
	f.Add(uint8(4), -3, -1, 2, -7)
	f.Fuzz(func(t *testing.T, sel uint8, sw, inPort, dst, tag int) {
		ctx := ctxs[int(sel)%len(ctxs)]
		r := ctx.routes
		rule := r.Lookup(sw, inPort, dst, tag)
		if want := lookupReference(r.Rules, ctx.ref, sw, inPort, dst, tag); rule != want {
			t.Fatalf("%s: Lookup(%d,%d,%d,%d) = %v, the map index gives %v",
				ctx.name, sw, inPort, dst, tag, rule, want)
		}
		wantOut, wantTag, wantOK := lookupForward(r, sw, inPort, dst, tag)
		if out, newTag, ok := r.FIB().Forward(sw, inPort, dst, tag); out != wantOut || newTag != wantTag || ok != wantOK {
			t.Fatalf("%s: (%d,%d,%d,%d): FIB (%d,%d,%v) != Lookup's rule (%d,%d,%v)",
				ctx.name, sw, inPort, dst, tag, out, newTag, ok, wantOut, wantTag, wantOK)
		}
	})
}
