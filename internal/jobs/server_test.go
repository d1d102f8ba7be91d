package jobs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/symprop/symprop/internal/faultinject"
	"github.com/symprop/symprop/internal/obs"
)

func newHTTP(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	m := newManager(t, cfg)
	ts := httptest.NewServer(NewServer(m))
	t.Cleanup(ts.Close)
	return m, ts
}

func doJSON(t *testing.T, method, url string, body any, out any) *http.Response {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp
}

func httpWaitState(t *testing.T, base, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st Status
		resp := doJSON(t, "GET", base+"/v1/jobs/"+id, nil, &st)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status poll: HTTP %d", resp.StatusCode)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s in %s (error %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestHTTPSubmitPollResult(t *testing.T) {
	checkGoroutines(t)
	_, ts := newHTTP(t, Config{Runners: 1})
	var accepted struct {
		ID    string `json:"id"`
		State State  `json:"state"`
	}
	resp := doJSON(t, "POST", ts.URL+"/v1/jobs", baseSpec(t), &accepted)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if accepted.State != StateQueued || accepted.ID == "" {
		t.Fatalf("submit response %+v", accepted)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+accepted.ID {
		t.Errorf("Location = %q", loc)
	}
	st := httpWaitState(t, ts.URL, accepted.ID, StateSucceeded)
	if st.Iters != 10 {
		t.Errorf("Iters = %d", st.Iters)
	}

	res, err := http.Get(ts.URL + "/v1/jobs/" + accepted.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK || !strings.HasPrefix(body.String(), "% symprop factor matrix") {
		t.Fatalf("result: HTTP %d, body %q", res.StatusCode, body.String()[:40])
	}

	var list struct {
		Jobs []Status `json:"jobs"`
	}
	doJSON(t, "GET", ts.URL+"/v1/jobs", nil, &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != accepted.ID {
		t.Errorf("list = %+v", list.Jobs)
	}

	var metrics struct {
		Counters map[string]int64 `json:"counters"`
	}
	doJSON(t, "GET", ts.URL+"/metrics", nil, &metrics)
	if metrics.Counters["jobs.succeeded"] != 1 {
		t.Errorf("metrics counters = %v", metrics.Counters)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	checkGoroutines(t)
	m, ts := newHTTP(t, Config{Runners: 1})

	// 400: invalid spec.
	if resp := doJSON(t, "POST", ts.URL+"/v1/jobs", Spec{Rank: 0}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid spec: HTTP %d, want 400", resp.StatusCode)
	}
	// 400: an inline tensor whose header declares two billion non-zeros.
	// Sizing from the header would crash the server with the runtime's
	// out-of-memory fatal error; the cases below show it keeps serving.
	bomb := Spec{Rank: 2, Tensor: "sym 3 1000 2000000000\n1 2 3 1.5\n"}
	if resp := doJSON(t, "POST", ts.URL+"/v1/jobs", bomb, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("header bomb: HTTP %d, want 400", resp.StatusCode)
	}
	// 413 from one byte past the body cap; a body of exactly the cap is
	// read in full (it holds no JSON value, so 400).
	for _, c := range []struct {
		size int64
		want int
	}{{maxSubmitBytes, http.StatusBadRequest}, {maxSubmitBytes + 1, http.StatusRequestEntityTooLarge}} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", io.LimitReader(spaces{}, c.size))
		if err != nil {
			t.Fatal(err)
		}
		var body errorBody
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != c.want || err != nil || body.Error == "" {
			t.Errorf("%d-byte body: HTTP %d, error %q (decode: %v), want %d", c.size, resp.StatusCode, body.Error, err, c.want)
		}
	}
	// 404: unknown job, all verbs.
	for _, u := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result", "/v1/jobs/nope/events"} {
		if resp := doJSON(t, "GET", ts.URL+u, nil, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404", u, resp.StatusCode)
		}
	}
	if resp := doJSON(t, "DELETE", ts.URL+"/v1/jobs/nope", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown: HTTP %d, want 404", resp.StatusCode)
	}

	// 429 + Retry-After: injected admission fault (the saturation path).
	disarm := faultinject.Arm(faultinject.SiteJobAdmit, func(any) error {
		return errors.New("injected admission fault")
	})
	resp := doJSON(t, "POST", ts.URL+"/v1/jobs", baseSpec(t), nil)
	disarm()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("saturated: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("saturated response missing Retry-After")
	}

	// 409: result of a non-terminal job.
	gateStarted, release := gateRunners(t)
	var accepted struct {
		ID string `json:"id"`
	}
	doJSON(t, "POST", ts.URL+"/v1/jobs", baseSpec(t), &accepted)
	for len(gateStarted()) == 0 {
		time.Sleep(time.Millisecond)
	}
	if resp := doJSON(t, "GET", ts.URL+"/v1/jobs/"+accepted.ID+"/result", nil, nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("running result: HTTP %d, want 409", resp.StatusCode)
	}
	release()
	httpWaitState(t, ts.URL, accepted.ID, StateSucceeded)

	// 503 + Retry-After after drain; healthz flips too.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp = doJSON(t, "POST", ts.URL+"/v1/jobs", baseSpec(t), nil)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("draining: HTTP %d (Retry-After %q), want 503 with hint", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	var health struct {
		Status string `json:"status"`
	}
	if resp := doJSON(t, "GET", ts.URL+"/healthz", nil, &health); resp.StatusCode != http.StatusServiceUnavailable || health.Status != "draining" {
		t.Errorf("healthz during drain: HTTP %d %+v", resp.StatusCode, health)
	}
}

// TestHTTPShardsFieldAccepted: a submit body's deprecated "shards" field
// is still accepted and ignored, and a negative value is still a 400.
func TestHTTPShardsFieldAccepted(t *testing.T) {
	checkGoroutines(t)
	_, ts := newHTTP(t, Config{Runners: 1})
	spec := baseSpec(t)
	spec.Shards = 4
	var accepted struct {
		ID string `json:"id"`
	}
	if resp := doJSON(t, "POST", ts.URL+"/v1/jobs", spec, &accepted); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("shards 4: HTTP %d, want 202", resp.StatusCode)
	}
	httpWaitState(t, ts.URL, accepted.ID, StateSucceeded)
	spec.Shards = -1
	if resp := doJSON(t, "POST", ts.URL+"/v1/jobs", spec, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("shards -1: HTTP %d, want 400", resp.StatusCode)
	}
}

// spaces reads as endless JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

func TestHTTPCancel(t *testing.T) {
	checkGoroutines(t)
	_, ts := newHTTP(t, Config{Runners: 1})
	started, release := gateRunners(t)
	var first, second struct {
		ID string `json:"id"`
	}
	doJSON(t, "POST", ts.URL+"/v1/jobs", baseSpec(t), &first)
	for len(started()) == 0 {
		time.Sleep(time.Millisecond)
	}
	doJSON(t, "POST", ts.URL+"/v1/jobs", baseSpec(t), &second)
	var st Status
	if resp := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+second.ID, nil, &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", resp.StatusCode)
	}
	if st.State != StateCanceled {
		t.Errorf("cancel response state = %s", st.State)
	}
	release()
	httpWaitState(t, ts.URL, first.ID, StateSucceeded)
}

// TestHTTPEventsSSE reads the event stream end to end: trace events
// while running, the terminal state, then EOF when the server closes the
// stream.
func TestHTTPEventsSSE(t *testing.T) {
	checkGoroutines(t)
	_, ts := newHTTP(t, Config{Runners: 1})
	started, release := gateRunners(t)
	var accepted struct {
		ID string `json:"id"`
	}
	doJSON(t, "POST", ts.URL+"/v1/jobs", baseSpec(t), &accepted)
	for len(started()) == 0 {
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + accepted.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	release()
	traces, last := 0, Event{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		if ev.JobID != accepted.ID {
			t.Errorf("event for job %q on stream of %q", ev.JobID, accepted.ID)
		}
		if ev.Type == "trace" {
			traces++
		}
		last = ev
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if traces == 0 {
		t.Error("no trace events on the SSE stream")
	}
	if last.Type != "state" || last.State != StateSucceeded {
		t.Errorf("final event %+v, want succeeded state", last)
	}
}

func TestHTTPSubmitRejectsBadJSON(t *testing.T) {
	_, ts := newHTTP(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: HTTP %d, want 400", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
		t.Errorf("error body missing: %v %+v", err, eb)
	}
}

func TestHTTPMethodRouting(t *testing.T) {
	_, ts := newHTTP(t, Config{})
	// Wrong method on a defined path must not fall into another handler.
	resp, err := http.Post(ts.URL+"/v1/jobs/someid", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST on status path: HTTP %d, want 405", resp.StatusCode)
	}
}

// sseSetup builds a server with a fast keepalive period, gates the
// runner fleet, submits one job, and opens its SSE stream.
func sseSetup(t *testing.T, keepAlive time.Duration) (m *Manager, id string, body *bufio.Scanner, closeStream func()) {
	t.Helper()
	m = newManager(t, Config{Runners: 1})
	started, _ := gateRunners(t)
	s := NewServer(m)
	s.SetKeepAliveInterval(keepAlive)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	var err error
	id, err = m.Submit(baseSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the runner popped the job (now parked in the gate), so
	// the stream is guaranteed idle afterwards.
	deadline := time.Now().Add(10 * time.Second)
	for len(started()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("runner never picked up the job")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %d", resp.StatusCode)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return m, id, bufio.NewScanner(resp.Body), func() { resp.Body.Close() }
}

// TestSSEKeepalive: an idle stream (job parked in the runner gate) must
// carry periodic keepalive comment frames so clients can distinguish a
// quiet job from a dead connection.
func TestSSEKeepalive(t *testing.T) {
	checkGoroutines(t)
	_, _, sc, closeStream := sseSetup(t, 5*time.Millisecond)
	defer closeStream()
	keepalives := 0
	deadline := time.Now().Add(10 * time.Second)
	for sc.Scan() && keepalives < 3 {
		if strings.HasPrefix(sc.Text(), ": keepalive") {
			keepalives++
		}
		if time.Now().After(deadline) {
			break
		}
	}
	if keepalives < 3 {
		t.Fatalf("saw %d keepalive frames on an idle stream, want >= 3 (scan err %v)",
			keepalives, sc.Err())
	}
}

// TestSSEDroppedEventCounted: an event that cannot be marshaled (NaN in a
// trace value) must be dropped with accounting — the jobs.events_dropped
// counter moves — and the stream must keep delivering later events.
func TestSSEDroppedEventCounted(t *testing.T) {
	checkGoroutines(t)
	m, id, sc, closeStream := sseSetup(t, time.Hour) // no keepalives: isolate data frames
	defer closeStream()

	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		t.Fatal("job not in manager map")
	}
	// NaN is unencodable by encoding/json: the realistic marshal-failure
	// path for a trace event from a diverging decomposition.
	jobSink{j}.Emit(obs.TraceEvent{Sweep: 1, Objective: math.NaN()})

	deadline := time.Now().Add(10 * time.Second)
	for m.Counters().Value("jobs.events_dropped") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("jobs.events_dropped never incremented after an unencodable event")
		}
		time.Sleep(time.Millisecond)
	}

	// The stream must survive the drop: a following valid event arrives.
	jobSink{j}.Emit(obs.TraceEvent{Sweep: 2, Objective: 1.5})
	got := false
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE frame %q: %v", line, err)
		}
		if ev.Type == "trace" && ev.Trace != nil && ev.Trace.Sweep == 2 {
			got = true
			break
		}
		if ev.Trace != nil && ev.Trace.Sweep == 1 {
			t.Fatal("the unencodable event leaked onto the stream")
		}
	}
	if !got {
		t.Fatalf("valid event after the dropped one never arrived (scan err %v)", sc.Err())
	}
}
