// Command sdtd is the long-running simulation service: the scenario
// registry exposed over HTTP/JSON with a content-addressed result
// cache and a bounded job scheduler (internal/service). Start it once,
// then submit jobs with sdtctl -daemon or any HTTP client — identical
// specs are served from the cache instead of re-simulated, and
// identical in-flight specs share one execution.
//
// Usage:
//
//	sdtd                                  # listen on :7390, all cores
//	sdtd -addr 127.0.0.1:8080 -workers 4
//	sdtd -cache-mb 256 -cache-dir /var/cache/sdtd
//	sdtd -queue 128 -grace 30s
//
// API (see internal/service for the wire types):
//
//	POST   /v1/jobs              submit a job spec
//	GET    /v1/jobs/{id}         status + telemetry snapshot
//	GET    /v1/jobs/{id}/result  result body
//	DELETE /v1/jobs/{id}         cancel
//	GET    /v1/scenarios         registry + param schemas
//	GET    /v1/healthz           liveness
//	GET    /v1/statsz            cache/queue/run counters
//
// On SIGTERM or SIGINT the daemon stops accepting jobs, cancels the
// queued backlog, and waits up to -grace for running simulations; when
// the grace expires the survivors are cancelled engine-deep (they stop
// within one event stride). A clean drain exits 0, a forced one 130.
//
// -cpuprofile and -memprofile write a CPU profile of the daemon's life
// and an allocation profile as it exits, for `go tool pprof`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/service"
)

// Connection deadlines. Without them a client that opens a connection
// and never finishes its request holds a goroutine and a descriptor for
// the life of the daemon. They are not flags: nothing about a
// deployment changes them.
const (
	// readHeaderTimeout bounds the request line and headers.
	readHeaderTimeout = 5 * time.Second
	// readTimeout bounds the whole request; a submission body is capped
	// at 1 MiB (service.maxSubmitBytes).
	readTimeout = 30 * time.Second
	// writeTimeout bounds handler plus response write. No handler waits
	// on a job (clients poll), so this is the time to send one result
	// body, and the largest — every experiment's tables — is well under
	// a megabyte.
	writeTimeout = 2 * time.Minute
	// idleTimeout closes keep-alive connections between requests.
	idleTimeout = 2 * time.Minute
)

// newHTTPServer wraps the service handler in a server with the
// connection deadlines above.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// listeningLine is the start-up log line. Workers, queue and cache are
// read from the running server, not from the flags: service.New
// replaces a zero flag with its default, and the line shows the value
// in use.
func listeningLine(addr, cacheDir string, st service.Stats) string {
	return fmt.Sprintf("sdtd: listening on %s (workers=%d queue=%d cache=%dMiB dir=%q)",
		addr, st.Workers, st.QueueCap, st.Cache.Budget>>20, cacheDir)
}

func main() {
	os.Exit(run())
}

func run() (code int) {
	addr := flag.String("addr", ":7390", "listen address")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = all cores)")
	queue := flag.Int("queue", 64, "admission queue capacity (full queue rejects with 429)")
	cacheMB := flag.Int("cache-mb", 64, "in-memory result cache budget in MiB")
	cacheDir := flag.String("cache-dir", "", "on-disk result store (empty = memory only; survives restarts)")
	grace := flag.Duration("grace", 30*time.Second, "drain grace for running jobs on shutdown")
	prof := cli.ProfileFlags()
	flag.Parse()

	if err := prof.Start(); err != nil {
		log.Printf("sdtd: %v", err)
		return 1
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			log.Printf("sdtd: %v", err)
			code = max(code, 1)
		}
	}()

	srv, err := service.New(service.Config{
		Workers:    *workers,
		QueueCap:   *queue,
		CacheBytes: int64(*cacheMB) << 20,
		CacheDir:   *cacheDir,
	})
	if err != nil {
		log.Printf("sdtd: %v", err)
		return 1
	}

	hs := newHTTPServer(*addr, srv.Handler())
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Print(listeningLine(*addr, *cacheDir, srv.Stats()))

	select {
	case err := <-errc:
		log.Printf("sdtd: serve: %v", err)
		return 1
	case <-ctx.Done():
	}

	// Shutdown: stop the listener first so no submission can slip in
	// behind the drain, then drain the scheduler under the grace.
	log.Printf("sdtd: signal received, draining (grace %v)", *grace)
	hctx, hcancel := context.WithTimeout(context.Background(), *grace)
	defer hcancel()
	if err := hs.Shutdown(hctx); err != nil {
		log.Printf("sdtd: http shutdown: %v", err)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), *grace)
	defer dcancel()
	derr := srv.Drain(dctx)
	switch {
	case derr == nil:
		log.Printf("sdtd: drained cleanly")
	case errors.Is(derr, context.DeadlineExceeded):
		log.Printf("sdtd: grace expired, running jobs hard-cancelled")
	default:
		log.Printf("sdtd: drain: %v", derr)
	}
	if code := cli.ExitCode(derr); code != 0 {
		return code
	}
	fmt.Fprintln(os.Stderr, "sdtd: bye")
	return 0
}
