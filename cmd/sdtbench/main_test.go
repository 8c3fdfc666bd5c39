package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var bin string // the sdtbench binary TestMain builds

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "sdtbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "sdtbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building sdtbench: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// sdtbench runs the binary and returns its stdout and exit code.
func sdtbench(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), exit.ExitCode()
	}
	t.Fatalf("sdtbench %v: %v\n%s", args, err, stderr.String())
	return "", 0
}

// TestProfileFlags: -cpuprofile and -memprofile leave stdout
// byte-identical and write both profiles, also when a set fails and
// the command exits non-zero.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	plain, code := sdtbench(t, "-exp", "fig11")
	if code != 0 {
		t.Fatalf("sdtbench -exp fig11 exits %d", code)
	}
	profiled, code := sdtbench(t, "-exp", "fig11", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("sdtbench -exp fig11 with profiles exits %d", code)
	}
	if profiled != plain {
		t.Errorf("stdout with profiles differs:\n%s\nwithout:\n%s", profiled, plain)
	}
	nonEmpty(t, cpu, mem)

	cpu, mem = filepath.Join(dir, "fail-cpu.pprof"), filepath.Join(dir, "fail-mem.pprof")
	if _, code := sdtbench(t, "-exp", "loadgen-incast", "-load", "1.5", "-cpuprofile", cpu, "-memprofile", mem); code != 1 {
		t.Fatalf("a spec out of range exits %d, want 1", code)
	}
	nonEmpty(t, cpu, mem)
}

func nonEmpty(t *testing.T, paths ...string) {
	t.Helper()
	for _, p := range paths {
		if fi, err := os.Stat(p); err != nil {
			t.Errorf("profile %s: %v", filepath.Base(p), err)
		} else if fi.Size() == 0 {
			t.Errorf("profile %s is empty", filepath.Base(p))
		}
	}
}
