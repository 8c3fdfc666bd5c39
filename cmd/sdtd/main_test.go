package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/service"
)

// TestStalledHeaderIsClosed: a client that sends half a request line
// and goes quiet must be disconnected by the server once
// readHeaderTimeout passes, instead of holding a goroutine and a
// descriptor forever. It waits out the real constant, so -short skips
// it.
func TestStalledHeaderIsClosed(t *testing.T) {
	if testing.Short() {
		t.Skip("waits readHeaderTimeout")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer("", http.NotFoundHandler())
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/heal"); err != nil {
		t.Fatal(err)
	}
	// The client's own deadline only ends the test if the server never
	// hangs up. A server-side close reads as EOF well before it, after
	// at most an error reply (net/http answers a timed-out header with
	// 400 or with nothing, depending on how the error surfaces).
	conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 5*time.Second))
	start := time.Now()
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("server kept a stalled connection open for %v: %v", time.Since(start), err)
	}
	if len(reply) > 0 && !bytes.HasPrefix(reply, []byte("HTTP/1.1 4")) {
		t.Errorf("half a request line was answered with %q", reply)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Errorf("connection closed after %v, before readHeaderTimeout (%v)", waited, readHeaderTimeout)
	}
}

// TestListeningLineShowsSettingsInUse: the start-up line reports the
// queue and cache the server runs with, so zero flags, which service.New
// replaces with its defaults, log the defaults and not 0.
func TestListeningLineShowsSettingsInUse(t *testing.T) {
	for _, c := range []struct {
		cfg  service.Config
		want string
	}{
		{service.Config{Workers: 1}, `sdtd: listening on :7390 (workers=1 queue=64 cache=64MiB dir="")`},
		{service.Config{Workers: 2, QueueCap: 8, CacheBytes: 3 << 20}, `sdtd: listening on :7390 (workers=2 queue=8 cache=3MiB dir="")`},
	} {
		srv, err := service.New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := listeningLine(":7390", "", srv.Stats()); got != c.want {
			t.Errorf("%+v: %s\nwant %s", c.cfg, got, c.want)
		}
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestProfileFlags: a daemon started with -cpuprofile and -memprofile
// writes both profiles as it drains and exits 0, and its stdout stays
// what it is without them: empty.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "sdtd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building sdtd: %v\n%s", err, out)
	}
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	plain := serveOnce(t, bin, "-addr", "127.0.0.1:0")
	profiled := serveOnce(t, bin, "-addr", "127.0.0.1:0", "-cpuprofile", cpu, "-memprofile", mem)
	if profiled != plain {
		t.Errorf("stdout with profiles %q, without %q", profiled, plain)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil {
			t.Errorf("profile %s: %v", filepath.Base(p), err)
		} else if fi.Size() == 0 {
			t.Errorf("profile %s is empty", filepath.Base(p))
		}
	}
}

// serveOnce starts the daemon, sends it SIGTERM once it listens, and
// returns its stdout; it fails the test unless the daemon exits 0.
func serveOnce(t *testing.T, bin string, args ...string) string {
	t.Helper()
	var stdout bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := bufio.NewScanner(stderr)
	for lines.Scan() && !strings.Contains(lines.Text(), "sdtd: listening on") {
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, stderr)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("sdtd %v: %v", args, err)
	}
	return stdout.String()
}
