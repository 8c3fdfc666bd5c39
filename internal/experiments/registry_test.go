package experiments

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"
)

// TestRegistryOrder pins the presentation order sdtbench prints for
// -exp all.
func TestRegistryOrder(t *testing.T) {
	want := []string{"table1", "fig11", "fig12", "table2", "table3", "table4", "fig13", "isolation", "active", "tables", "loadgen-sweep", "loadgen-incast", "loadgen-sweep-xl", "cc-shootout", "faults-sweep", "faults-flap", "reconfig-sweep", "reconfig-under-load"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registered %v, want %v", got, want)
		}
	}
}

func TestRegistryLookup(t *testing.T) {
	e, ok := Lookup("table3")
	if !ok {
		t.Fatal("table3 not registered")
	}
	if e.Desc == "" || e.run == nil {
		t.Fatalf("incomplete entry: %+v", e)
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("lookup of unknown name succeeded")
	}
}

// TestSelect pins the -exp resolution rules: comma lists keep their
// order, "all" expands in presentation order, whitespace is trimmed,
// and unknown or empty names fail with the registry's valid-name list
// (the same self-answering UX as workload.ByName).
func TestSelect(t *testing.T) {
	got, err := Select("fig12,table3")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "fig12" || got[1].Name != "table3" {
		t.Fatalf("Select(fig12,table3) = %v", got)
	}

	all, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Names()) {
		t.Fatalf("Select(all) returned %d entries, registry has %d", len(all), len(Names()))
	}
	for i, name := range Names() {
		if all[i].Name != name {
			t.Fatalf("Select(all)[%d] = %s, want %s", i, all[i].Name, name)
		}
	}

	trimmed, err := Select(" fig11 , table1 ")
	if err != nil {
		t.Fatalf("whitespace around names should be ignored: %v", err)
	}
	if len(trimmed) != 2 || trimmed[0].Name != "fig11" || trimmed[1].Name != "table1" {
		t.Fatalf("Select with spaces = %v", trimmed)
	}

	for _, bad := range []string{"nope", "fig12,nope", "fig12,,table3", "fig12,"} {
		_, err := Select(bad)
		if err == nil {
			t.Fatalf("Select(%q) succeeded", bad)
		}
		msg := err.Error()
		if !strings.Contains(msg, "unknown scenario set") ||
			!strings.Contains(msg, "valid:") ||
			!strings.Contains(msg, "loadgen-sweep") ||
			!strings.Contains(msg, "all") {
			t.Fatalf("Select(%q) error lacks the valid-name list: %v", bad, err)
		}
	}
}

// TestRegistryRunnerWritesTable runs the cheapest registered scenario
// set end to end through the registry path.
func TestRegistryRunnerWritesTable(t *testing.T) {
	e, ok := Lookup("table1")
	if !ok {
		t.Fatal("table1 not registered")
	}
	var buf bytes.Buffer
	if err := e.Run(t.Context(), JobSpec{}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table I") {
		t.Errorf("output missing the table header:\n%s", buf.String())
	}
}

// TestRegistryRunnerHonoursCancellation: a cancelled context aborts a
// registered sweep with the context's error.
func TestRegistryRunnerHonoursCancellation(t *testing.T) {
	e, ok := Lookup("fig11")
	if !ok {
		t.Fatal("fig11 not registered")
	}
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	var buf bytes.Buffer
	err := e.Run(ctx, JobSpec{Reps: 1, Workers: 1}, &buf, io.Discard)
	if err == nil {
		t.Fatal("cancelled registry run returned nil error")
	}
}
