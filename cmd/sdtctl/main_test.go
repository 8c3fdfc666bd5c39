package main

// Transcript tests: each runs the sdtctl binary, built once in TestMain
// together with topogen (whose files it reads), and checks its exit
// code and output.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/topology"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "sdtctl-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	if out, err := exec.Command("go", "build", "-o", dir, ".", "../topogen").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building sdtctl and topogen: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// exe runs one of the built binaries with args and returns its stdout,
// stderr and exit code.
func exe(t *testing.T, bin string, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(binDir, bin), args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	}
	t.Fatal(err)
	return "", "", 0
}

// generate writes topogen's file for one generator into dir.
func generate(t *testing.T, dir, gen, params string) string {
	t.Helper()
	path := filepath.Join(dir, gen+".json")
	if _, errOut, code := exe(t, "topogen", "-gen", gen, "-params", params, "-o", path); code != 0 {
		t.Fatalf("topogen %s %s: exit %d: %s", gen, params, code, errOut)
	}
	return path
}

// write writes a configuration file into dir.
func write(t *testing.T, dir, name, config string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(config), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckTopogenAndZooFiles(t *testing.T) {
	dir := t.TempDir()
	ft := generate(t, dir, "fattree", "4")
	torus := generate(t, dir, "torus2d", "4,4,1")
	var zoo bytes.Buffer
	if err := topology.Zoo(1)[0].ToConfig().WriteConfig(&zoo); err != nil {
		t.Fatal(err)
	}
	wan := write(t, dir, "zoo.json", zoo.String())
	out, errOut, code := exe(t, "sdtctl", "-check", ft+","+torus+","+wan)
	want := "fattree-k4: OK — fits the testbed (3 switches x 88 ports)\n" +
		"torus2d-4x4: OK — fits the testbed (3 switches x 88 ports)\n" +
		"zoo-000: OK — fits the testbed (3 switches x 88 ports)\n" +
		"set: OK — all 3 topologies fit the testbed together\n"
	if code != 0 || out != want || errOut != "" {
		t.Errorf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
}

// TestCheckRejectsBadFiles: a file Build refuses fails -check with one
// line on stderr and exit code 1, and the good file beside it is still
// checked.
func TestCheckRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	ft := generate(t, dir, "fattree", "4")
	for _, c := range []struct{ config, err string }{
		{`{"generator":"ring","params":[-1,1]}`, "topology config: ring(-1,1): need n >= 1 and hosts >= 0"},
		{`{"generator":"fattree","params":[3]}`, "topology config: fattree(3): k must be even and >= 2"},
		{`{"name":"loop","switches":["a"],"links":[{"a":"a","b":"a"}]}`, `topology config "loop": link 0 joins "a" to itself`},
	} {
		bad := write(t, dir, "bad.json", c.config)
		out, errOut, code := exe(t, "sdtctl", "-check", bad+","+ft)
		wantErr := "sdtctl: load " + bad + ": " + c.err + "\n"
		if code != 1 || errOut != wantErr || out != "fattree-k4: OK — fits the testbed (3 switches x 88 ports)\n" {
			t.Errorf("%s: exit %d\nstdout:\n%s\nstderr:\n%s\nwant stderr:\n%s", c.config, code, out, errOut, wantErr)
		}
	}
}

func TestJSONReport(t *testing.T) {
	dir := t.TempDir()
	ft := generate(t, dir, "fattree", "4")
	torus := generate(t, dir, "torus2d", "4,4,1")
	out, errOut, code := exe(t, "sdtctl", "-check", ft+","+torus, "-json")
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(out), &keys); err != nil {
		t.Fatal(err)
	}
	var names []string
	for k := range keys {
		names = append(names, k)
	}
	slices.Sort(names)
	if want := []string{"ok", "ports", "results", "switches"}; !slices.Equal(names, want) {
		t.Errorf("document keys %v, want %v", names, want)
	}
	var rep ctlReport
	dec := json.NewDecoder(strings.NewReader(out))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatal(err)
	}
	want := ctlReport{Switches: 3, Ports: 88, OK: true, Results: []ctlResult{
		{Action: "check", Topology: "fattree-k4", OK: true},
		{Action: "check", Topology: "torus2d-4x4", OK: true},
		{Action: "check-set", Topology: "fattree-k4+torus2d-4x4", OK: true},
	}}
	if fmt.Sprint(rep) != fmt.Sprint(want) {
		t.Errorf("report %+v\nwant %+v", rep, want)
	}
}

func TestReconfigureTranscript(t *testing.T) {
	dir := t.TempDir()
	ft := generate(t, dir, "fattree", "4")
	torus := generate(t, dir, "torus2d", "4,4,1")
	out, errOut, code := exe(t, "sdtctl", "-reconfigure", ft+","+torus)
	want := regexp.MustCompile(`^deployed fattree-k4 \(\d+ entries, \S+\)\n` +
		`reconfigured -> torus2d-4x4 \(\d+ entries, \S+\) — no cables touched\n$`)
	if code != 0 || errOut != "" || !want.MatchString(out) {
		t.Errorf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if _, errOut, code := exe(t, "sdtctl", "-reconfigure", ft); code != 1 ||
		errOut != "sdtctl: reconfigure "+ft+": -reconfigure needs at least two configs\n" {
		t.Errorf("one config: exit %d, stderr %q", code, errOut)
	}
}

// TestRenamedDragonflyDeploys: naming a generator config does not
// change its routing, so a renamed Dragonfly still gets its
// deadlock-free minimal routes and the same flow entries — from the
// generator config, and from the explicit file topogen writes for it,
// which carries the family in its "family" field.
func TestRenamedDragonflyDeploys(t *testing.T) {
	dir := t.TempDir()
	lab := filepath.Join(dir, "lab-topogen.json")
	if _, errOut, code := exe(t, "topogen", "-gen", "dragonfly", "-params", "4,9,2,1", "-name", "lab", "-o", lab); code != 0 {
		t.Fatalf("topogen: exit %d: %s", code, errOut)
	}
	var entries []int
	for _, path := range []string{
		write(t, dir, "df.json", `{"generator":"dragonfly","params":[4,9,2,1]}`),
		write(t, dir, "dflab.json", `{"name":"lab","generator":"dragonfly","params":[4,9,2,1]}`),
		lab,
	} {
		out, errOut, code := exe(t, "sdtctl", "-deploy", path, "-json")
		var rep ctlReport
		if err := json.Unmarshal([]byte(out), &rep); err != nil || code != 0 || len(rep.Results) != 1 {
			t.Fatalf("%s: exit %d, %v\nstdout:\n%s\nstderr:\n%s", filepath.Base(path), code, err, out, errOut)
		}
		entries = append(entries, rep.Results[0].Entries)
	}
	if entries[0] != entries[1] || entries[0] != entries[2] || entries[0] == 0 {
		t.Errorf("entries: unnamed %d, renamed %d, renamed topogen file %d", entries[0], entries[1], entries[2])
	}
}

// TestNoSwitchesSaysSo: a topology with no switches fails -check and
// -deploy with the reason.
func TestNoSwitchesSaysSo(t *testing.T) {
	x := write(t, t.TempDir(), "x.json", `{"name":"x"}`)
	for _, c := range []struct{ action, want string }{
		{"-check", "sdtctl: check x: projection: topology \"x\" has no switches to project\n"},
		{"-deploy", "sdtctl: plan " + x + ": projection: topology \"x\" has no switches to project\n"},
	} {
		out, errOut, code := exe(t, "sdtctl", c.action, x)
		if code != 1 || out != "" || errOut != c.want {
			t.Errorf("%s: exit %d\nstdout:\n%s\nstderr:\n%s\nwant stderr:\n%s", c.action, code, out, errOut, c.want)
		}
	}
}

// TestDeployDump pins what -deploy … -dump prints for a 4-switch ring:
// the deploy line and every installed flow entry in match order, the
// order Switch.Process scans. testdata/deploy-dump.txt is the
// transcript; a change that moves it re-records it with
//
//	topogen -gen ring -params 4,1 -o ring.json && sdtctl -deploy ring.json -dump
func TestDeployDump(t *testing.T) {
	ring := generate(t, t.TempDir(), "ring", "4,1")
	out, errOut, code := exe(t, "sdtctl", "-deploy", ring, "-dump")
	want, err := os.ReadFile(filepath.Join("testdata", "deploy-dump.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 || errOut != "" || out != string(want) {
		t.Errorf("exit %d\nstdout:\n%s\nstderr:\n%s\nwant stdout:\n%s", code, out, errOut, want)
	}
}
