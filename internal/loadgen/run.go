package loadgen

// The open-loop runner: walks the schedule on the wall clock, submits each
// arrival to the server over HTTP, polls the job to its terminal state,
// and records the scheduled-arrival→terminal latency. Arrivals never wait
// for completions — a slow server accumulates in-flight work up to
// MaxInFlight and sheds (and counts) the rest, so reported percentiles
// include the queueing the traffic actually caused.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/symprop/symprop/internal/jobs"
	"github.com/symprop/symprop/internal/obs"
)

// Defaults for Options zero values.
const (
	DefaultMaxInFlight  = 64
	DefaultPollInterval = 10 * time.Millisecond
	DefaultRetryBudget  = 8
	DefaultWindow       = time.Second
	defaultRetryAfter   = 250 * time.Millisecond
	maxRetryAfter       = 5 * time.Second
	// histStripes spreads completion-side Record calls over independent
	// mutex-guarded histograms; merged at the end.
	histStripes = 8
)

// Options configures a load run. BaseURL, Mix, Rate, and Duration are
// required; the rest default as documented.
type Options struct {
	// BaseURL is the symprop-serve root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client is the HTTP client; nil uses a dedicated client with sane
	// connection reuse for the concurrency level.
	Client *http.Client
	// Mix, Rate (jobs/s), Duration, and Seed define the schedule; see
	// Mix.Schedule.
	Mix      *Mix
	Rate     float64
	Duration time.Duration
	Seed     int64
	// MaxInFlight caps concurrent outstanding jobs; arrivals beyond it are
	// shed and counted, not queued (open-loop overload protection).
	MaxInFlight int
	// PollInterval is the status-poll period while a job runs.
	PollInterval time.Duration
	// RetryBudget bounds 429/503 resubmissions per arrival.
	RetryBudget int
	// Window is the width of the percentile-over-time buckets (keyed by
	// scheduled arrival time).
	Window time.Duration
	// Tenant scopes all submitted jobs; empty uses the server default.
	Tenant string
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Client == nil {
		out.Client = &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 128},
			Timeout:   30 * time.Second,
		}
	}
	if out.MaxInFlight <= 0 {
		out.MaxInFlight = DefaultMaxInFlight
	}
	if out.PollInterval <= 0 {
		out.PollInterval = DefaultPollInterval
	}
	if out.RetryBudget <= 0 {
		out.RetryBudget = DefaultRetryBudget
	}
	if out.Window <= 0 {
		out.Window = DefaultWindow
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// WindowStat is one arrival-time window's percentile summary.
type WindowStat struct {
	Start time.Duration
	Hist  *Histogram
}

// MetricsSnapshot is the /metrics document the server exposes.
type MetricsSnapshot struct {
	Counters map[string]int64  `json:"counters"`
	Plans    []obs.PlanMetrics `json:"plans"`
}

// PlanDelta is one plan's share of the run: the busy-ns accumulated
// between the before and after scrapes and the imbalance over that
// interval (guarded — 0, never NaN, when the plan was idle).
type PlanDelta struct {
	Name      string
	BusyNs    int64
	Imbalance float64
}

// Result is everything a run measured.
type Result struct {
	// Hist holds scheduled-arrival→terminal latencies of completed jobs.
	Hist *Histogram
	// Windows are per-arrival-window percentile histograms, in order.
	Windows []WindowStat
	// Counts per Result field; see bench.LatencyRun for semantics.
	Scheduled, Submitted, Completed, Failed, Shed, Retries, Saturated int64
	// Elapsed is schedule start to last completion (includes drain tail).
	Elapsed time.Duration
	// CounterDeltas and PlanDeltas are the /metrics before/after diff.
	CounterDeltas map[string]int64
	PlanDeltas    []PlanDelta
}

// Run executes one open-loop load run against a live server. ctx cancels
// the run early: outstanding jobs stop polling and count as failed.
func Run(ctx context.Context, opts Options) (*Result, error) {
	o := opts.withDefaults()
	schedule, err := o.Mix.Schedule(o.Rate, o.Duration, o.Seed)
	if err != nil {
		return nil, err
	}
	tensors, err := o.Mix.Tensors(o.Seed)
	if err != nil {
		return nil, err
	}
	if _, err := scrapeMetrics(ctx, o.Client, o.BaseURL); err != nil {
		return nil, fmt.Errorf("loadgen: server not reachable at %s: %w", o.BaseURL, err)
	}
	before, err := scrapeMetrics(ctx, o.Client, o.BaseURL)
	if err != nil {
		return nil, err
	}

	res := &Result{Hist: &Histogram{}, Scheduled: int64(len(schedule))}
	nWindows := int(o.Duration/o.Window) + 1
	res.Windows = make([]WindowStat, nWindows)
	for i := range res.Windows {
		res.Windows[i] = WindowStat{Start: time.Duration(i) * o.Window, Hist: &Histogram{}}
	}

	var (
		stripes  [histStripes]Histogram
		stripeMu [histStripes]sync.Mutex
		windowMu sync.Mutex
		inFlight atomic.Int64
		wg       sync.WaitGroup
	)
	record := func(idx int, at, lat time.Duration) {
		s := idx % histStripes
		stripeMu[s].Lock()
		stripes[s].Record(int64(lat))
		stripeMu[s].Unlock()
		w := int(at / o.Window)
		if w >= 0 && w < nWindows {
			windowMu.Lock()
			res.Windows[w].Hist.Record(int64(lat))
			windowMu.Unlock()
		}
	}

	o.Logf("loadgen: %d arrivals over %s at %.1f/s (seed %d)", len(schedule), o.Duration, o.Rate, o.Seed)
	start := time.Now()
	for idx, a := range schedule {
		if err := sleepUntil(ctx, start.Add(a.At)); err != nil {
			// Canceled mid-schedule: the rest of the arrivals never happened.
			res.Scheduled = int64(idx)
			break
		}
		if inFlight.Load() >= int64(o.MaxInFlight) {
			res.Shed++
			continue
		}
		inFlight.Add(1)
		wg.Add(1)
		go func(idx int, a Arrival) {
			defer wg.Done()
			defer inFlight.Add(-1)
			ok := o.runJob(ctx, a, tensors[a.Shape], res)
			if ok {
				record(idx, a.At, time.Since(start.Add(a.At)))
			}
		}(idx, a)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	for i := range stripes {
		res.Hist.Merge(&stripes[i])
	}

	after, err := scrapeMetrics(ctx, o.Client, o.BaseURL)
	if err != nil {
		o.Logf("loadgen: post-run metrics scrape failed: %v", err)
	} else {
		res.CounterDeltas = diffCounters(before.Counters, after.Counters)
		res.PlanDeltas = diffPlans(before.Plans, after.Plans)
	}
	o.Logf("loadgen: done in %s: %s", res.Elapsed.Round(time.Millisecond), res.Hist)
	return res, nil
}

// runJob drives one arrival to a terminal state. Returns true when the
// job succeeded (its latency should be recorded). Counter fields of res
// are updated atomically.
func (o *Options) runJob(ctx context.Context, a Arrival, tensor string, res *Result) bool {
	shape := o.Mix.Shapes[a.Shape]
	spec := jobs.Spec{
		Tenant:   o.Tenant,
		Tensor:   tensor,
		Rank:     shape.Rank,
		MaxIters: shape.MaxIters,
		Seed:     a.Seed,
		Workers:  shape.Workers,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		atomic.AddInt64(&res.Failed, 1)
		return false
	}
	id, ok := o.submit(ctx, body, res)
	if !ok {
		return false
	}
	atomic.AddInt64(&res.Submitted, 1)
	st, ok := o.await(ctx, id)
	if !ok || st.State != jobs.StateSucceeded {
		atomic.AddInt64(&res.Failed, 1)
		return false
	}
	atomic.AddInt64(&res.Completed, 1)
	return true
}

// submit POSTs the spec, honoring 429/503 Retry-After up to the retry
// budget. Returns the job ID, or ok=false after counting the failure.
func (o *Options) submit(ctx context.Context, body []byte, res *Result) (string, bool) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, o.BaseURL+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			atomic.AddInt64(&res.Failed, 1)
			return "", false
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := o.Client.Do(req)
		if err != nil {
			atomic.AddInt64(&res.Failed, 1)
			return "", false
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var out struct {
				ID string `json:"id"`
			}
			err := json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil || out.ID == "" {
				atomic.AddInt64(&res.Failed, 1)
				return "", false
			}
			return out.ID, true
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			delay := retryAfter(resp)
			resp.Body.Close()
			if attempt >= o.RetryBudget {
				// Budget exhausted against a saturated server: the request
				// is charged as both saturated and failed.
				atomic.AddInt64(&res.Saturated, 1)
				atomic.AddInt64(&res.Failed, 1)
				return "", false
			}
			atomic.AddInt64(&res.Retries, 1)
			if err := sleepFor(ctx, delay); err != nil {
				atomic.AddInt64(&res.Failed, 1)
				return "", false
			}
		default:
			resp.Body.Close()
			atomic.AddInt64(&res.Failed, 1)
			return "", false
		}
	}
}

// await polls the job's status until it is terminal or ctx is canceled.
func (o *Options) await(ctx context.Context, id string) (jobs.Status, bool) {
	url := o.BaseURL + "/v1/jobs/" + id
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return jobs.Status{}, false
		}
		resp, err := o.Client.Do(req)
		if err != nil {
			return jobs.Status{}, false
		}
		var st jobs.Status
		decErr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || decErr != nil {
			return jobs.Status{}, false
		}
		if st.State.Terminal() {
			return st, true
		}
		if err := sleepFor(ctx, o.PollInterval); err != nil {
			return jobs.Status{}, false
		}
	}
}

// retryAfter reads the Retry-After hint, clamped to [default, max].
func retryAfter(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if sec, err := strconv.Atoi(s); err == nil && sec > 0 {
			d := time.Duration(sec) * time.Second
			if d > maxRetryAfter {
				d = maxRetryAfter
			}
			return d
		}
	}
	return defaultRetryAfter
}

func sleepUntil(ctx context.Context, t time.Time) error {
	return sleepFor(ctx, time.Until(t))
}

func sleepFor(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// scrapeMetrics fetches the server's /metrics document.
func scrapeMetrics(ctx context.Context, c *http.Client, base string) (*MetricsSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: GET /metrics: %s", resp.Status)
	}
	var out MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// diffCounters returns after−before, keeping only keys that moved.
func diffCounters(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64)
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// diffPlans attributes the run's kernel time per plan. The imbalance of
// each delta uses the guarded ratio: a plan that recorded no busy time in
// the interval reports 0, never NaN — the all-idle case the obs audit
// covers (obs.ImbalanceRatio).
func diffPlans(before, after []obs.PlanMetrics) []PlanDelta {
	prev := make(map[string]obs.PlanMetrics, len(before))
	for _, p := range before {
		prev[p.Name] = p
	}
	var out []PlanDelta
	for _, p := range after {
		b := prev[p.Name] // zero value for plans first seen after
		busy := p.BusyNs - b.BusyNs
		if busy <= 0 && p.Invocations == b.Invocations {
			continue // plan untouched by the run
		}
		out = append(out, PlanDelta{
			Name:      p.Name,
			BusyNs:    busy,
			Imbalance: obs.ImbalanceRatio(p.MaxBusyNs-b.MaxBusyNs, busy),
		})
	}
	return out
}
