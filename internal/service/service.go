// Package service is the long-running simulation service behind
// cmd/sdtd: the scenario registry (internal/experiments) exposed as a
// job-submission API with a content-addressed result cache and a
// bounded, worker-pooled scheduler.
//
// A job is a canonical experiments.JobSpec — scenario name plus knobs
// — whose content hash doubles as cache key and dedup identity. That
// is sound because a result body holds only what the Runner writes to
// its simulated sink: bytes that are a pure function of the spec (the
// contract the golden harness pins), so two daemons, or one daemon
// twice, serve byte-equal bodies. The Runner's measured sink is
// discarded; a job's measured number is JobStatus.WallMs. Submission
// resolves in order:
//
//  1. cache hit — a completed job record is returned immediately, no
//     simulation runs;
//  2. singleflight — an identical spec already queued or running
//     adopts the submitter (one execution, any number of waiters);
//  3. admission — the job enters the bounded queue, or is rejected
//     with ErrQueueFull when the backlog is at capacity.
//
// Jobs move submit → queued → running → done/failed/cancelled. Each
// runs under its own context chained off the server's: cancellation —
// a DELETE, or a draining daemon — reaches the engine's event loop
// within one stop stride (the PR 3 contract), so aborting a running
// simulation is cheap and frees its worker slot promptly. Drain stops
// admission, discards the backlog, and waits for running jobs.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/experiments"
)

// JobSpec is the canonical job description (and cache identity); see
// experiments.JobSpec.
type JobSpec = experiments.JobSpec

// State is a job's lifecycle position.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether no further transition can occur.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Config sizes a Server.
type Config struct {
	// Workers is the number of simulations executed concurrently
	// (<= 0: GOMAXPROCS). Each job may additionally fan out internally
	// via its spec's workers knob.
	Workers int
	// QueueCap bounds the admitted-but-not-running backlog (<= 0: 64).
	// Submissions beyond it fail with ErrQueueFull rather than queueing
	// unboundedly — the admission-control half of "absorb heavy
	// traffic".
	QueueCap int
	// CacheBytes is the in-memory result-cache budget (<= 0: 64 MiB).
	CacheBytes int64
	// CacheDir, when non-empty, persists results on disk so cache hits
	// survive restarts.
	CacheDir string
}

// Errors the admission path returns; the HTTP layer maps them to
// status codes.
var (
	ErrQueueFull  = errors.New("service: job queue full")
	ErrDraining   = errors.New("service: draining, not accepting jobs")
	ErrUnknownJob = errors.New("service: unknown job id")
)

// Server owns the cache, the queue, and the worker pool. Create with
// New, expose over HTTP via Handler, stop with Drain.
type Server struct {
	cfg   Config
	cache *Cache
	start time.Time

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job // by id
	inflight map[string]*job // by spec hash: queued or running
	queue    chan *job
	draining bool
	seq      int64

	// Counters for /v1/statsz.
	submitted, deduped, rejected int64
	runsByScenario               map[string]int64

	wg sync.WaitGroup
}

// job is one tracked execution. Mutable fields are guarded by mu;
// result is written once before state turns terminal.
type job struct {
	id   string
	spec JobSpec
	key  string

	ctx    context.Context
	cancel context.CancelFunc
	out    *countWriter

	mu         sync.Mutex
	state      State
	err        string
	cached     bool
	waiters    int
	queuedAt   time.Time
	startedAt  time.Time
	finishedAt time.Time
	result     []byte
}

// New builds a Server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 64 << 20
	}
	cache, err := NewCache(cfg.CacheBytes, cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg: cfg, cache: cache, start: time.Now(),
		baseCtx: ctx, baseCancel: cancel,
		jobs: map[string]*job{}, inflight: map[string]*job{},
		queue:          make(chan *job, cfg.QueueCap),
		runsByScenario: map[string]int64{},
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Submit admits one spec. The returned status is the job's view at
// admission time: terminal already for a cache hit, queued otherwise;
// Dedup marks adoption by an identical in-flight job. Errors:
// validation failures, ErrQueueFull, ErrDraining.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	if err := spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	key := spec.Hash()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobStatus{}, ErrDraining
	}
	s.submitted++
	// Singleflight: adopt the identical queued/running job.
	if j, ok := s.inflight[key]; ok {
		s.deduped++
		j.mu.Lock()
		j.waiters++
		j.mu.Unlock()
		st := j.status()
		st.Dedup = true
		return st, nil
	}
	// Content-addressed hit: a completed record, no execution.
	if body, ok := s.cache.Get(key); ok {
		j := s.newJobLocked(spec, key)
		now := time.Now()
		j.state, j.cached, j.result = StateDone, true, body
		j.startedAt, j.finishedAt = now, now
		j.cancel()
		return j.status(), nil
	}
	j := s.newJobLocked(spec, key)
	select {
	case s.queue <- j:
	default:
		delete(s.jobs, j.id)
		j.cancel()
		s.rejected++
		return JobStatus{}, ErrQueueFull
	}
	s.inflight[key] = j
	return j.status(), nil
}

// newJobLocked allocates and registers a job record. Requires s.mu.
func (s *Server) newJobLocked(spec JobSpec, key string) *job {
	s.seq++
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &job{
		id:   fmt.Sprintf("j%04d-%s", s.seq, key[:8]),
		spec: spec, key: key,
		ctx: ctx, cancel: cancel, out: &countWriter{},
		state: StateQueued, queuedAt: time.Now(),
	}
	s.jobs[j.id] = j
	return j
}

// worker drains the queue until it closes (Drain).
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.run(j)
	}
}

// run executes one dequeued job through its registered runner.
func (s *Server) run(j *job) {
	j.mu.Lock()
	if j.state != StateQueued { // cancelled while queued
		j.mu.Unlock()
		s.retire(j)
		return
	}
	j.state = StateRunning
	j.startedAt = time.Now()
	j.mu.Unlock()

	e, ok := experiments.Lookup(j.spec.Scenario)
	var err error
	if !ok {
		// Validate pinned the name at submit; an unregistered name here
		// is a programming error, reported as a failed job.
		err = fmt.Errorf("service: scenario %q vanished from the registry", j.spec.Scenario)
	} else {
		err = runGuarded(e, j)
	}

	j.mu.Lock()
	j.finishedAt = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
		j.result = j.out.bytes()
	case errors.Is(err, context.Canceled) || errors.Is(j.ctx.Err(), context.Canceled):
		j.state = StateCancelled
		j.err = context.Canceled.Error()
	default:
		j.state = StateFailed
		j.err = err.Error()
	}
	done := j.state == StateDone
	j.mu.Unlock()
	j.cancel()

	if done {
		// Persist before retiring so a same-spec submit races into
		// either the inflight record or the cache line, never a gap.
		s.cache.Put(j.key, j.result)
		s.mu.Lock()
		s.runsByScenario[j.spec.Scenario]++
		s.mu.Unlock()
	}
	s.retire(j)
}

// runGuarded runs the job's scenario set, converting a runner panic
// (netsim panics on malformed schedules) into an error: the one job
// fails, the worker keeps draining the queue.
func runGuarded(e experiments.Entry, j *job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: runner panicked: %v", r)
		}
	}()
	return e.Run(j.ctx, j.spec, j.out, io.Discard)
}

// retire removes a terminal job from the singleflight index.
func (s *Server) retire(j *job) {
	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.mu.Unlock()
}

// Job returns a job's current status snapshot.
func (s *Server) Job(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	return j.status(), nil
}

// Result returns a done job's result body.
func (s *Server) Result(id string) ([]byte, JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, JobStatus{}, ErrUnknownJob
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, j.statusLocked(), fmt.Errorf("service: job %s is %s, no result", id, j.state)
	}
	return j.result, j.statusLocked(), nil
}

// Cancel aborts a job: a queued job is marked cancelled and skipped at
// dequeue; a running job's context cancellation reaches the engine
// within one stop stride. Terminal jobs are left as they are (cancel
// is idempotent). Note a cancelled job cancels for every deduped
// submitter sharing it.
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	j.mu.Lock()
	if j.state == StateQueued {
		j.state = StateCancelled
		j.err = context.Canceled.Error()
		j.finishedAt = time.Now()
	}
	j.mu.Unlock()
	j.cancel()
	s.retire(j)
	return j.status(), nil
}

// Drain stops admission, cancels the queued backlog, and waits for
// running jobs to finish. ctx bounds the wait: when it expires the
// survivors are hard-cancelled engine-deep (and waited for — workers
// return within one stop stride). Returns nil on a clean drain,
// ctx.Err() when the hard cancel fired. After Drain the server is
// stopped for good.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("service: already draining")
	}
	s.draining = true
	// Discard the backlog: queued jobs become cancelled without
	// running. Workers exit once the closed queue empties.
	for {
		select {
		case j := <-s.queue:
			j.mu.Lock()
			if j.state == StateQueued {
				j.state = StateCancelled
				j.err = "cancelled: server draining"
				j.finishedAt = time.Now()
			}
			j.mu.Unlock()
			j.cancel()
			if s.inflight[j.key] == j {
				delete(s.inflight, j.key)
			}
			continue
		default:
		}
		break
	}
	close(s.queue)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel() // engine-deep: every running job stops mid-stride
		<-done
		return ctx.Err()
	}
}

// countWriter collects a running job's output and publishes the byte
// count for in-flight telemetry snapshots. The runner goroutine is the
// only writer; readers only touch the atomic length.
type countWriter struct {
	mu  sync.Mutex
	buf []byte
}

func (w *countWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.buf = append(w.buf, p...)
	w.mu.Unlock()
	return len(p), nil
}

func (w *countWriter) len() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return int64(len(w.buf))
}

func (w *countWriter) bytes() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf
}
