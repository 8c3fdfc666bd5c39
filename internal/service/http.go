package service

// The HTTP/JSON surface of the daemon (all under /v1):
//
//	POST   /v1/jobs         submit a JobSpec        → JobStatus
//	GET    /v1/jobs/{id}    status + telemetry      → JobStatus
//	GET    /v1/jobs/{id}/result   result body       → text/plain
//	DELETE /v1/jobs/{id}    cancel                  → JobStatus
//	GET    /v1/scenarios    registry + param schema → []experiments.Entry
//	GET    /v1/healthz      liveness                → 200 "ok"
//	GET    /v1/statsz       cache/queue/run stats   → Stats
//
// Status mapping on submit: 200 for a cache hit (the job is born
// done), 202 for queued and for singleflight adoption, 400 for an
// invalid spec, 429 when the bounded queue is full, 503 while
// draining. Results: 200 with the table body, 202 with a JobStatus
// while the job is still in flight, 409 for failed/cancelled jobs.

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"repro/internal/experiments"
)

// JobStatus is a job's wire-visible snapshot: lifecycle state plus the
// in-flight telemetry the daemon can report without perturbing the
// simulation (timestamps, wall clock so far, bytes of output
// produced). BytesWritten grows while the job runs; ResultBytes is
// final.
type JobStatus struct {
	ID    string  `json:"id"`
	Key   string  `json:"key"`
	Spec  JobSpec `json:"spec"`
	State State   `json:"state"`
	// Cached: the result came straight from the content-addressed
	// cache; no simulation ran for this submission.
	Cached bool `json:"cached,omitempty"`
	// Dedup: this submission adopted an identical in-flight job
	// (set only on the submit response).
	Dedup bool `json:"dedup,omitempty"`
	// Waiters counts submissions sharing this execution beyond the
	// first.
	Waiters int    `json:"waiters,omitempty"`
	Error   string `json:"error,omitempty"`

	QueuedAt   time.Time `json:"queued_at,omitzero"`
	StartedAt  time.Time `json:"started_at,omitzero"`
	FinishedAt time.Time `json:"finished_at,omitzero"`
	// WallMs is the execution wall clock: running so far, or final.
	WallMs float64 `json:"wall_ms,omitempty"`
	// BytesWritten is the output produced so far (snapshot).
	BytesWritten int64 `json:"bytes_written,omitempty"`
	// ResultBytes is the completed result's size.
	ResultBytes int64 `json:"result_bytes,omitempty"`
}

// status snapshots a job.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *job) statusLocked() JobStatus {
	st := JobStatus{
		ID: j.id, Key: j.key, Spec: j.spec, State: j.state,
		Cached: j.cached, Waiters: j.waiters, Error: j.err,
		QueuedAt: j.queuedAt, StartedAt: j.startedAt, FinishedAt: j.finishedAt,
	}
	switch j.state {
	case StateRunning:
		st.WallMs = float64(time.Since(j.startedAt).Microseconds()) / 1000
		st.BytesWritten = j.out.len()
	case StateDone:
		if !j.cached {
			st.WallMs = float64(j.finishedAt.Sub(j.startedAt).Microseconds()) / 1000
		}
		st.ResultBytes = int64(len(j.result))
		st.BytesWritten = st.ResultBytes
	case StateFailed, StateCancelled:
		if !j.startedAt.IsZero() {
			st.WallMs = float64(j.finishedAt.Sub(j.startedAt).Microseconds()) / 1000
		}
		st.BytesWritten = j.out.len()
	}
	return st
}

// Stats is the /v1/statsz document.
type Stats struct {
	Cache      CacheStats `json:"cache"`
	QueueDepth int        `json:"queue_depth"`
	QueueCap   int        `json:"queue_cap"`
	Workers    int        `json:"workers"`
	Running    int        `json:"running"`
	// Jobs counts tracked job records by state: every queued and running
	// job, and the newest retainedTerminal terminal ones.
	Jobs map[State]int `json:"jobs"`
	// RunsByScenario counts completed executions per scenario set —
	// cache hits and deduped submissions do NOT increment it, which is
	// what makes "one execution for two identical submits" observable.
	RunsByScenario map[string]int64 `json:"runs_by_scenario,omitempty"`
	Submitted      int64            `json:"submitted"`
	Deduped        int64            `json:"deduped"`
	Rejected       int64            `json:"rejected_queue_full"`
	Draining       bool             `json:"draining,omitempty"`
	UptimeSec      float64          `json:"uptime_sec"`
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Cache:      s.cache.Stats(),
		QueueDepth: len(s.queue), QueueCap: s.cfg.QueueCap,
		Workers:   s.cfg.Workers,
		Jobs:      map[State]int{},
		Submitted: s.submitted, Deduped: s.deduped, Rejected: s.rejected,
		Draining:  s.draining,
		UptimeSec: time.Since(s.start).Seconds(),
	}
	if len(s.runsByScenario) > 0 {
		st.RunsByScenario = make(map[string]int64, len(s.runsByScenario))
		for k, v := range s.runsByScenario {
			st.RunsByScenario[k] = v
		}
	}
	for _, j := range s.jobs {
		j.mu.Lock()
		st.Jobs[j.state]++
		if j.state == StateRunning {
			st.Running++
		}
		j.mu.Unlock()
	}
	return st
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/scenarios", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, experiments.All())
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /v1/statsz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	return mux
}

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// maxSubmitBytes bounds a POST /v1/jobs body. A JobSpec is a flat
// object of a dozen scalars; 1 MiB is far beyond any valid one.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, apiError{"bad spec: " + err.Error()})
		return
	}
	st, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeJSON(w, http.StatusTooManyRequests, apiError{err.Error()})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, apiError{err.Error()})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
	case st.State.Terminal():
		writeJSON(w, http.StatusOK, st)
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	st, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	body, st, err := s.Result(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrUnknownJob):
		writeJSON(w, http.StatusNotFound, apiError{err.Error()})
	case err != nil && !st.State.Terminal():
		writeJSON(w, http.StatusAccepted, st) // still queued/running: poll again
	case err != nil:
		writeJSON(w, http.StatusConflict, st) // failed or cancelled
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("X-SDT-Job", st.ID)
		w.Header().Set("X-SDT-Cache", map[bool]string{true: "hit", false: "miss"}[st.Cached])
		w.Write(body)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}
