package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
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
