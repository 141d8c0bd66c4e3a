// The HTTP/JSON surface: submit, poll, stream, cancel, list, admin.
// Everything mounts on the shared observability server, so a single
// address serves the job API next to /metrics and /healthz.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"gravel/internal/harness"
	"gravel/internal/jobqueue"
	"gravel/internal/noderun"
	"gravel/internal/obs"
)

// SubmitRequest is the POST /api/v1/jobs body. Zero-valued workload
// parameters resolve to the app's registered defaults, exactly like
// the gravel-node flag surface.
type SubmitRequest struct {
	App      string  `json:"app"`
	Model    string  `json:"model"`
	Nodes    int     `json:"nodes"`
	Fabric   string  `json:"fabric"`
	Scale    float64 `json:"scale"`
	Seed     uint64  `json:"seed"`
	Table    int     `json:"table"`
	Updates  int     `json:"updates"`
	Steps    int     `json:"steps"`
	Verts    int     `json:"verts"`
	Iters    int     `json:"iters"`
	Faults   string  `json:"faults"`
	Priority int     `json:"priority"`
}

// Spec maps the request onto a noderun Spec.
func (r SubmitRequest) Spec() noderun.Spec {
	s := noderun.Spec{
		App:    r.App,
		Model:  r.Model,
		Nodes:  r.Nodes,
		Fabric: r.Fabric,
		Faults: r.Faults,
	}
	s.Params.Scale = r.Scale
	s.Params.Seed = r.Seed
	s.Params.Table = r.Table
	s.Params.Updates = r.Updates
	s.Params.Steps = r.Steps
	s.Params.Verts = r.Verts
	s.Params.Iters = r.Iters
	return s
}

// SubmitResponse tells the submitter which job to poll and how the
// request was absorbed: queued, deduped onto an identical in-flight
// job, or served from the result cache.
type SubmitResponse struct {
	Outcome jobqueue.Outcome `json:"outcome"`
	Job     jobqueue.View    `json:"job"`
}

// AdminQueue is the GET /api/v1/admin/queue document.
type AdminQueue struct {
	Queue    jobqueue.Stats `json:"queue"`
	UptimeNs int64          `json:"uptime_ns"`
}

func (s *Server) mountAPI() {
	s.obs.Handle("POST /api/v1/jobs", http.HandlerFunc(s.handleSubmit))
	s.obs.Handle("GET /api/v1/jobs", http.HandlerFunc(s.handleJobs))
	s.obs.Handle("GET /api/v1/jobs/{id}", http.HandlerFunc(s.handleJob))
	s.obs.Handle("GET /api/v1/jobs/{id}/events", http.HandlerFunc(s.handleEvents))
	s.obs.Handle("DELETE /api/v1/jobs/{id}", http.HandlerFunc(s.handleCancel))
	s.obs.Handle("GET /api/v1/registry", http.HandlerFunc(handleRegistry))
	s.obs.Handle("GET /api/v1/admin/queue", http.HandlerFunc(s.handleAdminQueue))
	s.obs.Handle("GET /api/v1/admin/workers", http.HandlerFunc(s.handleAdminWorkers))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

type apiError struct {
	Err string `json:"err"`
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Err: err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, errors.New("server draining: not accepting new jobs"))
		return
	}
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad submit body: %w", err))
		return
	}
	view, outcome, err := s.q.Submit(req.Spec(), req.Priority)
	if err != nil {
		code := http.StatusBadRequest
		if err == jobqueue.ErrClosed {
			code = http.StatusServiceUnavailable
		}
		writeErr(w, code, err)
		return
	}
	code := http.StatusAccepted
	if outcome == jobqueue.OutcomeCached {
		code = http.StatusOK
	}
	writeJSON(w, code, SubmitResponse{Outcome: outcome, Job: view})
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.q.List())
}

// handleJob returns one job's snapshot. ?wait=DURATION blocks until
// the job is terminal or the duration expires — the long-poll the CI
// smoke and simple clients use instead of a poll loop.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad wait: %w", err))
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		if view, ok := s.q.Wait(ctx, id); ok {
			writeJSON(w, http.StatusOK, view)
			return
		}
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	view, ok := s.q.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, ok := s.q.Cancel(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func handleRegistry(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, harness.List())
}

func (s *Server) handleAdminQueue(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, AdminQueue{
		Queue:    s.q.Stats(),
		UptimeNs: time.Since(s.started).Nanoseconds(),
	})
}

func (s *Server) handleAdminWorkers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.pool.view())
}

// Event is one frame of the progress stream (JSON lines on
// /api/v1/jobs/{id}/events): job transitions as they happen,
// interleaved with flight-recorder counter deltas while the job runs,
// periodic keepalives when nothing else flows, closed by a terminal
// frame.
type Event struct {
	Type  string         `json:"type"` // "transition" | "stats" | "keepalive" | "done"
	JobID string         `json:"job_id"`
	State jobqueue.State `json:"state,omitempty"`
	// Transition carries one new history entry (type "transition").
	Transition *jobqueue.Transition `json:"transition,omitempty"`
	// Recorder carries per-interval deltas of the flight recorder's
	// exact per-kind counters (type "stats"; only nonzero deltas).
	Recorder map[string]int64 `json:"recorder,omitempty"`
}

// Stream pacing. Vars, not consts, so tests can shrink them: the
// keepalive period bounds how long an idle stream stays silent, and
// the write timeout bounds how long a hung reader (a client that keeps
// the connection open but stops consuming) can pin a handler before it
// is evicted.
var (
	eventsTick         = 150 * time.Millisecond
	eventsKeepalive    = 10 * time.Second
	eventsWriteTimeout = 10 * time.Second
)

// handleEvents streams a job's progress as JSON lines until it reaches
// a terminal state or the client goes away. Idle periods are bridged
// with keepalive frames; every write carries a deadline so a reader
// that stops consuming is disconnected instead of pinning the handler
// (and its buffers) forever.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.q.Get(id); !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	s.eventStreams.Add(1)
	defer s.eventStreams.Add(-1)
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	lastEmit := time.Now()
	emit := func(e Event) bool {
		rc.SetWriteDeadline(time.Now().Add(eventsWriteTimeout))
		if err := enc.Encode(e); err != nil {
			return false
		}
		if err := rc.Flush(); err != nil {
			return false
		}
		lastEmit = time.Now()
		return true
	}

	sent := 0 // history entries already streamed
	last := recorderCounts()
	ticker := time.NewTicker(eventsTick)
	defer ticker.Stop()
	statsEvery := 0
	for {
		view, ok := s.q.Get(id)
		if !ok {
			return
		}
		for ; sent < len(view.History); sent++ {
			tr := view.History[sent]
			if !emit(Event{Type: "transition", JobID: id, State: tr.State, Transition: &tr}) {
				return
			}
		}
		if view.State.Terminal() {
			emit(Event{Type: "done", JobID: id, State: view.State})
			return
		}
		// Roughly once a second, stream what the flight recorder saw
		// since the last frame.
		if statsEvery++; statsEvery%7 == 0 {
			cur := recorderCounts()
			if delta := countsDelta(last, cur); len(delta) > 0 {
				if !emit(Event{Type: "stats", JobID: id, State: view.State, Recorder: delta}) {
					return
				}
			}
			last = cur
		}
		if time.Since(lastEmit) >= eventsKeepalive {
			if !emit(Event{Type: "keepalive", JobID: id, State: view.State}) {
				return
			}
		}
		select {
		case <-ticker.C:
		case <-r.Context().Done():
			return
		case <-s.q.Done(id):
		}
	}
}

func recorderCounts() map[string]int64 {
	if rec := obs.Active(); rec != nil {
		return rec.Counts()
	}
	return nil
}

func countsDelta(prev, cur map[string]int64) map[string]int64 {
	if cur == nil {
		return nil
	}
	delta := make(map[string]int64)
	for k, v := range cur {
		if d := v - prev[k]; d != 0 {
			delta[k] = d
		}
	}
	return delta
}
