package main

// Transcript tests: each runs the topogen binary, built once in
// TestMain, and checks its exit code and output.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/topology"
)

var topogen string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "topogen-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	topogen = filepath.Join(dir, "topogen")
	if out, err := exec.Command("go", "build", "-o", topogen, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building topogen: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run runs topogen with args and returns its stdout, stderr and exit
// code.
func run(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(topogen, args...)
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

func TestListPrintsTheTable(t *testing.T) {
	out, errOut, code := run(t, "-list")
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != len(topology.Generators) {
		t.Fatalf("%d lines for %d generators:\n%s", len(lines), len(topology.Generators), out)
	}
	for i, gen := range topology.Generators {
		f := strings.Fields(lines[i])
		if len(f) < 6 || f[0] != gen.Name || f[2] != strings.Join(gen.Params, ",") || f[4] != ints(gen.Example) ||
			!strings.HasSuffix(lines[i], " "+gen.Doc) {
			t.Errorf("line %d = %q, want row %s", i, lines[i], gen.Name)
		}
	}
}

// TestExamplesRoundTrip writes every row's example with -o and loads
// it back: the file builds the graph the generator builds, family
// included.
func TestExamplesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, gen := range topology.Generators {
		path := filepath.Join(dir, gen.Name+".json")
		if _, errOut, code := run(t, "-gen", gen.Name, "-params", ints(gen.Example), "-o", path); code != 0 {
			t.Fatalf("%s: exit %d: %s", gen.Name, code, errOut)
		}
		got, err := topology.LoadConfig(path)
		if err != nil {
			t.Fatalf("%s: %v", gen.Name, err)
		}
		want, err := (&topology.Config{Generator: gen.Name, Params: gen.Example}).Build()
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != want.Name || got.Family != want.Family || got.Summary() != want.Summary() {
			t.Errorf("%s: loaded %s (family %q), generated %s (family %q)", gen.Name, got, got.Family, want, want.Family)
		}
	}
}

func TestBadParametersExitCleanly(t *testing.T) {
	cases := []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-gen", "fattree", "-params", "3"}, 1, "topogen: topology config: fattree(3): k must be even and >= 2\n"},
		{[]string{"-gen", "ring", "-params", "-1,1"}, 1, "topogen: topology config: ring(-1,1): need n >= 1 and hosts >= 0\n"},
		{[]string{"-gen", "fattree", "-params", "100000"}, 1, "topogen: topology config: fattree(100000): more than 300000 vertices and edges\n"},
		{[]string{"-gen", "fattree", "-params", "x"}, 2, "topogen: bad parameter \"x\": strconv.Atoi: parsing \"x\": invalid syntax\n"},
		{[]string{"-params", "4"}, 2, "topogen: -gen required (try -list)\n"},
	}
	for _, c := range cases {
		out, errOut, code := run(t, c.args...)
		if code != c.code || errOut != c.want || out != "" {
			t.Errorf("topogen %s: exit %d, stdout %q, stderr %q; want exit %d, stderr %q",
				strings.Join(c.args, " "), code, out, errOut, c.code, c.want)
		}
	}
}

// ints formats p as a -params value.
func ints(p []int) string {
	s := make([]string, len(p))
	for i, v := range p {
		s[i] = strconv.Itoa(v)
	}
	return strings.Join(s, ",")
}
