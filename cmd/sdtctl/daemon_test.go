package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/service"
)

// TestDaemonStatsSortsScenarios: -stats prints one runs line per
// scenario in ascending name order, whatever order the map decodes in.
func TestDaemonStatsSortsScenarios(t *testing.T) {
	st := service.Stats{RunsByScenario: map[string]int64{
		"table4": 1, "fig12": 7, "loadgen-sweep": 3, "faults-sweep": 2, "reconfig-sweep": 5, "fig11": 4,
	}}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/statsz" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(st)
	}))
	defer srv.Close()

	out, errOut, code := exe(t, "sdtctl", "-daemon", srv.URL, "-stats")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var got []string
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "runs" {
			got = append(got, f[1]+" "+f[2])
		}
	}
	want := []string{"faults-sweep 2", "fig11 4", "fig12 7", "loadgen-sweep 3", "reconfig-sweep 5", "table4 1"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("runs lines %q, want %q\n%s", got, want, out)
	}
}
