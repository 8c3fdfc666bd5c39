package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
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
