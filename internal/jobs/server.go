package jobs

// The HTTP/JSON face of the Manager. Error mapping is fixed here and
// documented in docs/SERVING.md: ErrInvalidSpec → 400, ErrUnknownJob →
// 404, ErrNotTerminal → 409, a submit body over maxSubmitBytes → 413,
// ErrSaturated → 429 + Retry-After, ErrDraining → 503 + Retry-After.
// Events stream as Server-Sent Events, one JSON Event per "data:" line.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"
)

// maxSubmitBytes caps a POST /v1/jobs body. The largest body the repo's
// own clients send, scripts/serve_smoke.sh's inline 60k-non-zero tensor,
// is about 2 MiB.
const maxSubmitBytes = 32 << 20

// DefaultKeepAliveInterval is the period between SSE keepalive comment
// frames on an otherwise-idle event stream.
const DefaultKeepAliveInterval = 15 * time.Second

// Server serves the job API over a Manager.
type Server struct {
	m         *Manager
	mux       *http.ServeMux
	keepAlive time.Duration
}

// SetKeepAliveInterval overrides the SSE keepalive period (tests use
// milliseconds; <= 0 restores the default). Call before serving traffic.
func (s *Server) SetKeepAliveInterval(d time.Duration) {
	if d <= 0 {
		d = DefaultKeepAliveInterval
	}
	s.keepAlive = d
}

// NewServer wires the job API routes over m.
func NewServer(m *Manager) *Server {
	s := &Server{m: m, mux: http.NewServeMux(), keepAlive: DefaultKeepAliveInterval}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// errorBody is every non-2xx response's JSON payload.
type errorBody struct {
	Error string `json:"error"`
}

// writeErr maps the jobs error taxonomy to HTTP status codes; capacity
// and drain rejections carry a Retry-After hint.
func (s *Server) writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrInvalidSpec):
		code = http.StatusBadRequest
	case errors.Is(err, ErrUnknownJob):
		code = http.StatusNotFound
	case errors.Is(err, ErrNotTerminal):
		code = http.StatusConflict
	case errors.Is(err, ErrSaturated):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	}
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After",
			strconv.Itoa(int(s.m.RetryAfter()/time.Second)))
	}
	writeJSON(w, code, errorBody{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone: nothing to do
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes)).Decode(&spec); err != nil {
		if errors.As(err, new(*http.MaxBytesError)) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", maxSubmitBytes)})
			return
		}
		s.writeErr(w, fmt.Errorf("%w: bad JSON: %v", ErrInvalidSpec, err))
		return
	}
	id, err := s.m.Submit(spec)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+id)
	writeJSON(w, http.StatusAccepted, struct {
		ID    string `json:"id"`
		State State  `json:"state"`
	}{ID: id, State: StateQueued})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []Status `json:"jobs"`
	}{Jobs: s.m.List()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.m.Status(r.PathValue("id"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.m.Cancel(id); err != nil {
		s.writeErr(w, err)
		return
	}
	st, err := s.m.Status(id)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	path, err := s.m.ResultPath(r.PathValue("id"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		s.writeErr(w, fmt.Errorf("result file: %w", err))
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	http.ServeContent(w, r, "U.txt", time.Time{}, f)
}

// handleEvents streams the job's lifecycle and trace events as SSE until
// the job reaches a terminal state or the client disconnects. Idle
// streams carry periodic keepalive comment frames so clients and
// buffering intermediaries can tell a quiet job from a dead connection;
// events that fail to marshal are dropped but counted
// (jobs.events_dropped) instead of vanishing silently.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	ch, detach, err := s.m.Subscribe(r.PathValue("id"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	defer detach()
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeErr(w, fmt.Errorf("jobs: response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	tick := time.NewTicker(s.keepAlive)
	defer tick.Stop()
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return // terminal state reached; channel closed
			}
			buf, err := json.Marshal(ev)
			if err != nil {
				// A NaN/Inf trace value makes the event unencodable; the
				// stream must survive, but the loss must be visible.
				s.m.Counters().Add("jobs.events_dropped", 1)
				continue
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", buf); err != nil {
				return // client gone
			}
			fl.Flush()
		case <-tick.C:
			// SSE comment frame: ignored by conforming clients, but keeps
			// the connection visibly alive end to end.
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return // client gone
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	st := "ok"
	code := http.StatusOK
	if s.m.Draining() {
		st = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, struct {
		Status string `json:"status"`
	}{Status: st})
}

// handleMetrics exposes the control-plane counters and the per-plan
// kernel metrics in one JSON document.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Counters map[string]int64 `json:"counters"`
		Plans    any              `json:"plans"`
	}{
		Counters: s.m.Counters().Snapshot(),
		Plans:    s.m.Metrics().Snapshot(),
	})
}
