package service

// Client is the thin HTTP client for a running sdtd daemon — the
// programmatic face of `sdtctl -daemon` and examples/sdtd-client. It
// speaks only the wire types in this package, so a client build pulls
// no engine code beyond the registry the types reference.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/experiments"
)

// Client talks to one daemon.
type Client struct {
	// Base is the daemon's root URL, e.g. "http://127.0.0.1:7390".
	Base string
	// HTTP overrides the transport (nil: http.DefaultClient).
	HTTP *http.Client
}

// NewClient returns a client for the daemon at base (scheme optional:
// "host:port" is promoted to http://host:port).
func NewClient(base string) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do issues one request and decodes a JSON response into out (unless
// out is nil). Non-2xx responses decode the error envelope.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		var e apiError
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s %s: %s (HTTP %d)", method, path, e.Error, resp.StatusCode)
		}
		return fmt.Errorf("%s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// Submit posts a spec and returns the admission status (terminal
// immediately on a cache hit).
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &st)
	return st, err
}

// Job fetches a job's status + telemetry snapshot.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Cancel aborts a job.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Result fetches a done job's result body. While the job is still in
// flight it returns (nil, status, nil): poll again or use Wait.
func (c *Client) Result(ctx context.Context, id string) ([]byte, JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, JobStatus{}, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, JobStatus{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, JobStatus{}, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return data, JobStatus{ID: id, State: StateDone, Cached: resp.Header.Get("X-SDT-Cache") == "hit"}, nil
	case http.StatusAccepted, http.StatusConflict:
		var st JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			return nil, JobStatus{}, err
		}
		if resp.StatusCode == http.StatusConflict {
			return nil, st, fmt.Errorf("job %s is %s: %s", id, st.State, st.Error)
		}
		return nil, st, nil
	default:
		var e apiError
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return nil, JobStatus{}, fmt.Errorf("result %s: %s (HTTP %d)", id, e.Error, resp.StatusCode)
		}
		return nil, JobStatus{}, fmt.Errorf("result %s: HTTP %d", id, resp.StatusCode)
	}
}

// Wait polls until the job reaches a terminal state (or ctx ends).
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-t.C:
		}
	}
}

// Scenarios lists the daemon's registry with param schemas.
func (c *Client) Scenarios(ctx context.Context) ([]experiments.Entry, error) {
	var out []experiments.Entry
	err := c.do(ctx, http.MethodGet, "/v1/scenarios", nil, &out)
	return out, err
}

// Stats fetches /v1/statsz.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.do(ctx, http.MethodGet, "/v1/statsz", nil, &st)
	return st, err
}
