package experiments

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"
)

// smallLoadSpec shrinks the loadgen grids for test runtime.
func smallLoadSpec() JobSpec {
	return JobSpec{Seed: 9, Flows: 24, Workers: 0}
}

// Both loadgen scenario sets must be registered and rerun
// byte-identically at a fixed seed, at any worker count — the
// acceptance contract of the seeded sweep.
func TestLoadgenScenariosDeterministic(t *testing.T) {
	for _, name := range []string{"loadgen-sweep", "loadgen-incast"} {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		var a, b, serial bytes.Buffer
		p := smallLoadSpec()
		if err := e.Run(context.Background(), p, &a, io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(context.Background(), p, &b, io.Discard); err != nil {
			t.Fatal(err)
		}
		ps := p
		ps.Workers = 1
		if err := e.Run(context.Background(), ps, &serial, io.Discard); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: rerun with same seed differs:\n%s\n---\n%s", name, a.String(), b.String())
		}
		if !bytes.Equal(a.Bytes(), serial.Bytes()) {
			t.Fatalf("%s: parallel and serial outputs differ", name)
		}
		if a.Len() == 0 {
			t.Fatalf("%s produced no output", name)
		}
	}
}

// A different seed must change the sweep output (the schedules are a
// function of the seed, not a constant).
func TestLoadgenSeedMatters(t *testing.T) {
	e, _ := Lookup("loadgen-sweep")
	var a, b bytes.Buffer
	p := smallLoadSpec()
	if err := e.Run(context.Background(), p, &a, io.Discard); err != nil {
		t.Fatal(err)
	}
	p.Seed = 10
	if err := e.Run(context.Background(), p, &b, io.Discard); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("different seeds produced identical sweeps")
	}
}

// The sweep must cover the advertised grid: 3 patterns x 5 loads x 3
// topologies, every cell fully completed.
func TestLoadSweepGrid(t *testing.T) {
	r, err := LoadSweep(context.Background(), smallLoadSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 45 {
		t.Fatalf("%d cells, want 45", len(r.Cells))
	}
	topos, pats, loads := map[string]bool{}, map[string]bool{}, map[float64]bool{}
	for i := range r.Cells {
		c := &r.Cells[i]
		topos[c.Topo] = true
		pats[c.Pattern] = true
		loads[c.Load] = true
		if c.FCT == nil || c.FCT.Completed != c.Flows {
			t.Fatalf("cell %s/%s/%.1f incomplete: %+v", c.Topo, c.Pattern, c.Load, c.FCT)
		}
	}
	if len(topos) != 3 || len(pats) != 3 || len(loads) != 5 {
		t.Fatalf("grid %d topos x %d patterns x %d loads, want 3x3x5", len(topos), len(pats), len(loads))
	}
}

// Registry listing must expose names and descriptions (the -list
// surface) with the loadgen sets present.
func TestRegistryListing(t *testing.T) {
	names := Names()
	joined := strings.Join(names, " ")
	for _, want := range []string{"fig11", "table4", "loadgen-sweep", "loadgen-incast"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("registry missing %s: %v", want, names)
		}
	}
	for _, e := range All() {
		if e.Desc == "" {
			t.Fatalf("%s has no description", e.Name)
		}
	}
}

// An out-of-range -load must error, not silently fall back.
func TestLoadIncastRejectsBadLoad(t *testing.T) {
	e, _ := Lookup("loadgen-incast")
	p := smallLoadSpec()
	p.Load = 1.5
	if err := e.Run(context.Background(), p, io.Discard, io.Discard); err == nil {
		t.Fatal("load 1.5 accepted")
	}
}
