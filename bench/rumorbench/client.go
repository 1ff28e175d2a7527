package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dynamicrumor/internal/service"
	"dynamicrumor/internal/xrand"
)

// apiClient is one load-generator connection to the service API. Each client
// holds at most one connection, so a workload's client count bounds its
// connections.
type apiClient struct {
	base string
	hc   *http.Client
	tr   *tracer
	// jitter spreads each poll wait uniformly over half to one and a half
	// times the poll interval, so result latencies do not bunch on multiples
	// of the interval and their percentiles move smoothly.
	jitter *xrand.RNG
}

// newAPIClient opens a client whose poll jitter is drawn from seed.
func newAPIClient(base string, tr *tracer, seed uint64) *apiClient {
	return &apiClient{
		base: base,
		hc: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		},
		tr:     tr,
		jitter: xrand.New(seed),
	}
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and body. It records an
// http.request span under parent; the server's handler span names it as its
// parent.
func (c *apiClient) do(ctx context.Context, method, path string, body []byte, parent int64) (int, []byte, error) {
	sp := c.tr.begin("http.request", parent, "")
	defer sp.end()
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if sp.id != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(sp.id, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// submitRun posts a run request and decodes the job view.
func (c *apiClient) submitRun(ctx context.Context, body []byte, parent int64) (int, service.JobView, error) {
	var view service.JobView
	status, data, err := c.do(ctx, http.MethodPost, "/v1/runs", body, parent)
	if err != nil {
		return 0, view, err
	}
	if status == http.StatusOK || status == http.StatusAccepted {
		if err := json.Unmarshal(data, &view); err != nil {
			return status, view, fmt.Errorf("decode submit response: %w", err)
		}
	}
	return status, view, nil
}

// waitRun polls a job every poll (on average, with jitter) until it is
// terminal and returns its final view and the number of polls made.
func (c *apiClient) waitRun(ctx context.Context, id string, poll time.Duration, parent int64) (service.JobView, int, error) {
	polls := 0
	for {
		polls++
		status, data, err := c.do(ctx, http.MethodGet, "/v1/runs/"+id, nil, parent)
		if err != nil {
			return service.JobView{}, polls, err
		}
		if status != http.StatusOK {
			return service.JobView{}, polls, fmt.Errorf("GET /v1/runs/%s: status %d", id, status)
		}
		var view service.JobView
		if err := json.Unmarshal(data, &view); err != nil {
			return view, polls, fmt.Errorf("decode job: %w", err)
		}
		if view.State.Terminal() {
			return view, polls, nil
		}
		select {
		case <-ctx.Done():
			return view, polls, ctx.Err()
		case <-time.After(time.Duration((0.5 + c.jitter.Float64()) * float64(poll))):
		}
	}
}

// sweepEvent is one server-sent event of a sweep's event stream.
type sweepEvent struct {
	name string
	data []byte
}

// runSweep submits a sweep and reads its event stream until the terminal
// sweep event, returning every event received.
func (c *apiClient) runSweep(ctx context.Context, body []byte, parent int64) ([]sweepEvent, error) {
	status, data, err := c.do(ctx, http.MethodPost, "/v1/sweeps", body, parent)
	if err != nil {
		return nil, err
	}
	if status != http.StatusAccepted && status != http.StatusOK {
		return nil, fmt.Errorf("POST /v1/sweeps: status %d: %s", status, bytes.TrimSpace(data))
	}
	var view service.SweepView
	if err := json.Unmarshal(data, &view); err != nil {
		return nil, fmt.Errorf("decode sweep: %w", err)
	}
	sp := c.tr.begin("http.request", parent, "")
	defer sp.end()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/sweeps/"+view.ID+"/events", nil)
	if err != nil {
		return nil, err
	}
	if sp.id != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(sp.id, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET sweep events: status %d", resp.StatusCode)
	}
	var events []sweepEvent
	var cur sweepEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && cur.name != "":
			events = append(events, cur)
			if cur.name == "sweep" {
				return events, nil
			}
			cur = sweepEvent{}
		}
	}
	if err := sc.Err(); err != nil {
		return events, err
	}
	return events, fmt.Errorf("sweep %s: event stream ended without a terminal event", view.ID)
}

// runRequest renders a POST /v1/runs body.
func runRequest(family string, n, reps int, seed uint64) []byte {
	return []byte(fmt.Sprintf(`{"scenario":{"network":{"family":%q,"params":{"n":%d}}},"reps":%d,"seed":%d}`,
		family, n, reps, seed))
}

// checkSummary verifies a settled run's summary document against its
// request: every repetition ran and completed, under the job's key.
func checkSummary(view service.JobView, reps int, seed uint64) error {
	if view.State != service.StateDone {
		return fmt.Errorf("job %s settled %s: %s", view.ID, view.State, view.Error)
	}
	var sum service.RunSummary
	if err := json.Unmarshal(view.Summary, &sum); err != nil {
		return fmt.Errorf("decode summary: %w", err)
	}
	switch {
	case sum.Key != view.Key:
		return fmt.Errorf("summary key %.12s differs from job key %.12s", sum.Key, view.Key)
	case sum.Reps != reps || sum.Seed != seed:
		return fmt.Errorf("summary echoes reps=%d seed=%d, want reps=%d seed=%d", sum.Reps, sum.Seed, reps, seed)
	case sum.Completed != reps || sum.SpreadTime.N != reps:
		return fmt.Errorf("summary reports %d of %d repetitions completed", sum.Completed, reps)
	case !(sum.SpreadTime.Mean > 0):
		return fmt.Errorf("summary mean spread time %v is not positive", sum.SpreadTime.Mean)
	}
	return nil
}
