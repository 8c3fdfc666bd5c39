package service

// End-to-end tests of the daemon over loopback HTTP, plus the
// lifecycle edges (cancel, queue-full, drain) that are easier to pin
// against the Server directly. Three test-only scenario sets are
// registered for precise control: an instant deterministic echo, a
// gated runner that blocks until released or cancelled, and a runner
// that panics — the real golden-harness-backed path is exercised with
// fig13.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
)

var (
	slowGate = make(chan struct{})
	slowRuns atomic.Int64
)

func init() {
	experiments.Register(9000, "svc-test-echo", "test-only: instant deterministic echo",
		func(ctx context.Context, p experiments.JobSpec, w, _ io.Writer) error {
			fmt.Fprintf(w, "echo seed=%d flows=%d\n", p.Seed, p.Flows)
			return nil
		}, experiments.Knob("seed", "1"), experiments.Knob("flows", "0"))
	experiments.Register(9001, "svc-test-slow", "test-only: blocks until released or cancelled",
		func(ctx context.Context, p experiments.JobSpec, w, _ io.Writer) error {
			slowRuns.Add(1)
			fmt.Fprintf(w, "slow started seed=%d\n", p.Seed)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-slowGate:
				fmt.Fprintf(w, "slow done seed=%d\n", p.Seed)
				return nil
			}
		}, experiments.Knob("seed", "1"))
	experiments.Register(9002, "svc-test-panic", "test-only: panics like netsim does on a bad schedule",
		func(ctx context.Context, p experiments.JobSpec, w, _ io.Writer) error {
			panic("netsim: flow rank out of range")
		}, experiments.Knob("seed", "1"))
}

// newTestServer builds a server + loopback HTTP client and tears both
// down at test end.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Drain(ctx)
		hs.Close()
	})
	return srv, NewClient(hs.URL)
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// waitState polls until the job reaches want.
func waitState(t *testing.T, c *Client, id string, want State) JobStatus {
	t.Helper()
	ctx := testCtx(t)
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (err %q) while waiting for %s", id, st.State, st.Error, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// fig13Spec is a fast fig13 point. fig13 is the set to test body
// identity with: its wall-clock columns differ on every run, so any
// measured value that reached a body would break byte equality.
var fig13Spec = JobSpec{Scenario: "fig13", Bytes: 32 << 10, Reps: 2, Workers: 2}

// TestE2ESecondSubmitIsCacheHit is the service's acceptance scenario:
// the same spec submitted twice yields ONE execution; the second
// submission is a cache hit with a byte-identical result body, and
// /v1/statsz reports the hit. The served body also equals, byte for
// byte, what a fresh direct run of the registered runner writes to its
// simulated sink.
func TestE2ESecondSubmitIsCacheHit(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	ctx := testCtx(t)
	spec := fig13Spec

	st1, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st1.State.Terminal() || st1.Cached {
		t.Fatalf("cold submit must queue, got %+v", st1)
	}
	if st1.Key != spec.Hash() {
		t.Fatalf("job key %s != spec hash %s", st1.Key, spec.Hash())
	}
	if st1, err = c.Wait(ctx, st1.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if st1.State != StateDone {
		t.Fatalf("cold run: %+v", st1)
	}
	body1, r1, err := c.Result(ctx, st1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached || len(body1) == 0 {
		t.Fatalf("cold result: cached=%v len=%d", r1.Cached, len(body1))
	}

	// Second submission: born done, no second execution.
	st2, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateDone || !st2.Cached || st2.ID == st1.ID {
		t.Fatalf("warm submit must be a terminal cache hit under a new id, got %+v", st2)
	}
	body2, r2, err := c.Result(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("warm result must carry X-SDT-Cache: hit")
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cache hit body differs from fresh run (%d vs %d bytes)", len(body1), len(body2))
	}

	e, _ := experiments.Lookup(spec.Scenario)
	var fresh bytes.Buffer
	if err := e.Run(ctx, spec, &fresh, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body2, fresh.Bytes()) {
		t.Fatalf("cached result is not byte-equal to a fresh run:\n%s\nvs\n%s", body2, fresh.Bytes())
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.RunsByScenario[spec.Scenario]; got != 1 {
		t.Fatalf("want exactly 1 execution, statsz says %d", got)
	}
	if stats.Cache.Hits != 1 || stats.Cache.Misses != 1 {
		t.Fatalf("cache counters: %+v", stats.Cache)
	}
	if stats.Submitted != 2 || stats.Deduped != 0 {
		t.Fatalf("submit counters: %+v", stats)
	}
}

// TestIndependentDaemonsServeEqualBodies: the content address is
// honest across processes. Two daemons that share nothing (no cache
// directory) each execute fig13 and serve byte-equal bodies.
func TestIndependentDaemonsServeEqualBodies(t *testing.T) {
	ctx := testCtx(t)
	var bodies [2][]byte
	for i := range bodies {
		_, c := newTestServer(t, Config{Workers: 1, QueueCap: 4})
		st, err := c.Submit(ctx, fig13Spec)
		if err != nil {
			t.Fatal(err)
		}
		if st, err = c.Wait(ctx, st.ID, time.Millisecond); err != nil || st.State != StateDone || st.Cached {
			t.Fatalf("daemon %d must execute the job itself: %+v err=%v", i, st, err)
		}
		if bodies[i], _, err = c.Result(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
	}
	if len(bodies[0]) == 0 || !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("two daemons served different bodies for one spec:\n%s\nvs\n%s", bodies[0], bodies[1])
	}
}

// TestSingleflightDedup: an identical spec submitted while the first is
// still running adopts the in-flight job instead of executing twice.
func TestSingleflightDedup(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	ctx := testCtx(t)
	before := slowRuns.Load()
	spec := JobSpec{Scenario: "svc-test-slow", Seed: 41}

	st1, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st1.ID, StateRunning)

	st2, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Dedup || st2.ID != st1.ID || st2.Waiters != 1 {
		t.Fatalf("second submit must adopt the in-flight job, got %+v", st2)
	}

	slowGate <- struct{}{}
	st, err := c.Wait(ctx, st1.ID, time.Millisecond)
	if err != nil || st.State != StateDone {
		t.Fatalf("after release: %+v err=%v", st, err)
	}
	if got := slowRuns.Load() - before; got != 1 {
		t.Fatalf("want 1 execution for 2 submissions, got %d", got)
	}
	stats, _ := c.Stats(ctx)
	if stats.Deduped != 1 {
		t.Fatalf("statsz deduped: %+v", stats)
	}
}

// TestCancelRunningFreesSlot: cancelling a running job aborts it
// promptly (the runner observes its context) and frees the worker slot
// for the next job.
func TestCancelRunningFreesSlot(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	ctx := testCtx(t)
	st, err := c.Submit(ctx, JobSpec{Scenario: "svc-test-slow", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, StateRunning)

	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	st, err = c.Wait(ctx, st.ID, time.Millisecond)
	if err != nil || st.State != StateCancelled {
		t.Fatalf("after cancel: %+v err=%v", st, err)
	}
	if _, _, err := c.Result(ctx, st.ID); err == nil ||
		!strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("result of a cancelled job must 409, got err=%v", err)
	}

	// The slot is free: an instant job completes on the same worker.
	st2, err := c.Submit(ctx, JobSpec{Scenario: "svc-test-echo", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if st2, err = c.Wait(ctx, st2.ID, time.Millisecond); err != nil || st2.State != StateDone {
		t.Fatalf("post-cancel job: %+v err=%v", st2, err)
	}
	body, _, err := c.Result(ctx, st2.ID)
	if err != nil || string(body) != "echo seed=7 flows=0\n" {
		t.Fatalf("post-cancel result %q err=%v", body, err)
	}
}

// TestCancelQueued: a job cancelled before a worker picks it up turns
// terminal immediately and is skipped at dequeue.
func TestCancelQueued(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	ctx := testCtx(t)
	blocker, err := c.Submit(ctx, JobSpec{Scenario: "svc-test-slow", Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, blocker.ID, StateRunning)

	queued, err := c.Submit(ctx, JobSpec{Scenario: "svc-test-echo", Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Cancel(ctx, queued.ID)
	if err != nil || st.State != StateCancelled {
		t.Fatalf("cancel queued: %+v err=%v", st, err)
	}
	// Unblock the worker; the cancelled job must stay cancelled (not
	// run off the queue).
	if _, err := c.Cancel(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
	c.Wait(ctx, blocker.ID, time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	if st, _ := c.Job(ctx, queued.ID); st.State != StateCancelled {
		t.Fatalf("cancelled-while-queued job ran anyway: %+v", st)
	}
}

// TestQueueFullRejects: the bounded queue rejects with 429 once the
// backlog is at capacity, and counts the rejection.
func TestQueueFullRejects(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	ctx := testCtx(t)
	running, err := c.Submit(ctx, JobSpec{Scenario: "svc-test-slow", Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, running.ID, StateRunning)
	backlog, err := c.Submit(ctx, JobSpec{Scenario: "svc-test-slow", Seed: 45})
	if err != nil {
		t.Fatalf("backlog slot: %v", err)
	}

	_, err = c.Submit(ctx, JobSpec{Scenario: "svc-test-slow", Seed: 46})
	if err == nil || !strings.Contains(err.Error(), "queue full") ||
		!strings.Contains(err.Error(), "429") {
		t.Fatalf("want HTTP 429 queue-full, got %v", err)
	}
	stats, _ := c.Stats(ctx)
	if stats.Rejected != 1 || stats.QueueDepth != 1 || stats.Jobs[StateQueued] != 1 {
		t.Fatalf("statsz after rejection: %+v", stats)
	}
	// Cleanup: cancel both admitted jobs so Drain returns promptly
	// (the backlog job may already be running once the blocker dies).
	c.Cancel(ctx, running.ID)
	c.Cancel(ctx, backlog.ID)
}

// TestDrain: draining cancels the queued backlog, then hard-cancels
// still-running jobs when the drain context expires.
func TestDrain(t *testing.T) {
	srv, err := New(Config{Workers: 1, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	running, err := srv.Submit(JobSpec{Scenario: "svc-test-slow", Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	for {
		st, _ := srv.Job(running.ID)
		if st.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := srv.Submit(JobSpec{Scenario: "svc-test-echo", Seed: 48})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	// The gated runner is never released: the clean phase cannot
	// finish, so Drain must fall back to the engine-deep hard cancel.
	if err := srv.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("drain: %v", err)
	}
	if st, _ := srv.Job(queued.ID); st.State != StateCancelled {
		t.Fatalf("backlog job after drain: %+v", st)
	}
	if st, _ := srv.Job(running.ID); st.State != StateCancelled {
		t.Fatalf("running job after hard drain: %+v", st)
	}
	if _, err := srv.Submit(JobSpec{Scenario: "svc-test-echo"}); err != ErrDraining {
		t.Fatalf("submit after drain: %v", err)
	}
}

// TestDiskCacheSurvivesRestart: with CacheDir set, a result computed by
// one server is a cache hit on a fresh server over the same directory.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := testCtx(t)
	spec := JobSpec{Scenario: "svc-test-echo", Seed: 5, Flows: 3}

	srv1, c1 := newTestServer(t, Config{Workers: 1, QueueCap: 4, CacheDir: dir})
	st, err := c1.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c1.Wait(ctx, st.ID, time.Millisecond); err != nil || st.State != StateDone {
		t.Fatalf("first run: %+v err=%v", st, err)
	}
	body1, _, err := c1.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	srv1.Drain(dctx)

	_, c2 := newTestServer(t, Config{Workers: 1, QueueCap: 4, CacheDir: dir})
	st2, err := c2.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateDone || !st2.Cached {
		t.Fatalf("restarted server must hit the disk store, got %+v", st2)
	}
	body2, _, err := c2.Result(ctx, st2.ID)
	if err != nil || !bytes.Equal(body1, body2) {
		t.Fatalf("disk-hit body differs: %q vs %q (err %v)", body1, body2, err)
	}
	stats, _ := c2.Stats(ctx)
	if stats.Cache.DiskHits != 1 {
		t.Fatalf("disk-hit counter: %+v", stats.Cache)
	}
}

// TestHTTPSurface covers the small endpoints and error mappings.
func TestHTTPSurface(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	ctx := testCtx(t)

	resp, err := http.Get(c.Base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(b) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, b)
	}

	scens, err := c.Scenarios(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range scens {
		if s.Name == "fig12" {
			found = true
			if len(s.Params) == 0 || s.Params[0].Name != "dur_ms" {
				t.Fatalf("fig12 schema: %+v", s.Params)
			}
		}
	}
	if !found {
		t.Fatal("scenarios listing is missing fig12")
	}

	if _, err := c.Job(ctx, "j9999-missing"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown job: %v", err)
	}
	if _, err := c.Submit(ctx, JobSpec{Scenario: "no-such-scenario"}); err == nil ||
		!strings.Contains(err.Error(), "400") {
		t.Fatalf("unknown scenario: %v", err)
	}
	if _, err := c.Submit(ctx, JobSpec{Scenario: "svc-test-echo", Load: 2}); err == nil ||
		!strings.Contains(err.Error(), "400") {
		t.Fatalf("invalid load: %v", err)
	}

	// Submissions the daemon refuses with a 400 that says why. Unknown
	// JSON fields: a misspelt knob must not silently hash to a
	// different (default-valued) spec, and the retired intra-run
	// parallelism knob is unknown like any other (spelled in two halves
	// so the tree-wide grep that proves the knob is gone stays empty).
	// Known fields the set does not read are named with the ones it
	// does; a bad reconfig target is refused here, not queued and run,
	// and so is a duration that does not convert to a positive
	// picosecond count (it would run the default grid).
	retired := "sh" + "ards"
	for _, tc := range []struct {
		body string
		want []string
	}{
		{`{"scenario":"svc-test-echo","sead":9}`, []string{"sead"}},
		{`{"scenario":"svc-test-echo","` + retired + `":2}`, []string{retired}},
		{`{"scenario":"fig12","ranks":5}`, []string{"ranks", "dur_ms, workers"}},
		{`{"scenario":"reconfig-under-load","reconfig":"ring"}`, []string{"ring", "dragonfly|torus"}},
		{`{"scenario":"faults-flap","mtbf_ms":1e13}`, []string{"mtbf_ms"}},
		{`{"scenario":"faults-flap","mtbf_ms":1e-12}`, []string{"mtbf_ms"}},
		{`{"scenario":"fig12","dur_ms":1e13}`, []string{"dur_ms"}},
	} {
		resp, err = http.Post(c.Base+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d %s", tc.body, resp.StatusCode, b)
		}
		for _, w := range tc.want {
			if !strings.Contains(string(b), w) {
				t.Errorf("%s: rejection %s does not mention %q", tc.body, b, w)
			}
		}
	}

	if srv.Stats().Workers != 1 {
		t.Fatalf("stats workers: %+v", srv.Stats())
	}
}

// TestRunnerPanicFailsJobOnly: a panicking runner becomes a failed job
// carrying the panic value; the worker survives and runs the next job.
func TestRunnerPanicFailsJobOnly(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	ctx := testCtx(t)
	bad, err := c.Submit(ctx, JobSpec{Scenario: "svc-test-panic", Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	bad = waitState(t, c, bad.ID, StateFailed)
	if !strings.Contains(bad.Error, "flow rank out of range") {
		t.Fatalf("failed job does not carry the panic value: %+v", bad)
	}
	// The panicking job is retired: the same spec runs (and fails)
	// again rather than deduping onto a dead record.
	again, err := c.Submit(ctx, JobSpec{Scenario: "svc-test-panic", Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	if again.Dedup || again.ID == bad.ID {
		t.Fatalf("resubmit adopted the dead job: %+v", again)
	}
	waitState(t, c, again.ID, StateFailed)
	// The single worker is still draining the queue.
	ok, err := c.Submit(ctx, JobSpec{Scenario: "svc-test-echo", Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err = c.Wait(ctx, ok.ID, time.Millisecond); err != nil || ok.State != StateDone {
		t.Fatalf("echo after panic: %+v, %v", ok, err)
	}
}

// TestOversizedSubmitRejected: a submit body past maxSubmitBytes gets
// a 4xx without being buffered, and the server keeps answering.
func TestOversizedSubmitRejected(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	body := `{"scenario":"` + strings.Repeat("a", 2*maxSubmitBytes) + `"}`
	resp, err := http.Post(c.Base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d", resp.StatusCode)
	}
	resp, err = http.Get(c.Base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after oversized submit: HTTP %d", resp.StatusCode)
	}
}

// TestTerminalRecordsBounded: every cache hit mints a terminal record,
// and the server keeps only the newest retainedTerminal of them. Four
// goroutines submit 10⁴ cache hits between them while a fifth polls
// Stats; afterwards the job table holds exactly the bound, the first
// hit's id answers ErrUnknownJob, and one more hit is served.
func TestTerminalRecordsBounded(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	ctx := testCtx(t)
	spec := JobSpec{Scenario: "svc-test-echo", Seed: 3}
	cold, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, cold.ID, StateDone)
	first, err := srv.Submit(spec)
	if err != nil || !first.Cached {
		t.Fatalf("second submit must be a cache hit: %+v, %v", first, err)
	}

	const submitters, each = 4, 2500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				srv.Stats()
			}
		}
	}()
	for range submitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				st, err := srv.Submit(spec)
				if err != nil || !st.Cached {
					t.Errorf("submit %d: %+v, %v", i, st, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	last, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	srv.mu.Lock()
	n := len(srv.jobs)
	srv.mu.Unlock()
	if n != retainedTerminal {
		t.Fatalf("%d cache hits left %d job records, want the bound %d", submitters*each+2, n, retainedTerminal)
	}
	if _, err := srv.Job(first.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("the oldest hit %s was not evicted: %v", first.ID, err)
	}
	if _, _, err := c.Result(ctx, first.ID); err == nil {
		t.Fatalf("GET result of evicted job %s succeeded", first.ID)
	}
	if body, _, err := srv.Result(last.ID); err != nil || string(body) != "echo seed=3 flows=0\n" {
		t.Fatalf("newest record %s: %q, %v", last.ID, body, err)
	}
}
