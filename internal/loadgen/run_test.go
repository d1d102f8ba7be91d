package loadgen

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/symprop/symprop/internal/faultinject"
	"github.com/symprop/symprop/internal/jobs"
)

// startServer brings up a real jobs server over httptest for the runner
// to drive.
func startServer(t *testing.T, cfg jobs.Config) *httptest.Server {
	t.Helper()
	if cfg.SpoolDir == "" {
		cfg.SpoolDir = t.TempDir()
	}
	if cfg.Runners == 0 {
		cfg.Runners = 2
	}
	if cfg.JobWorkers == 0 {
		cfg.JobWorkers = 2
	}
	cfg.MemoryBudget = -1
	m, err := jobs.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(jobs.NewServer(m))
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	return srv
}

// TestRunEndToEnd drives a short open-loop run against a live server and
// checks the accounting invariants plus the snapshot/figure conversion.
func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a live server for ~2s")
	}
	srv := startServer(t, jobs.Config{})
	opts := Options{
		BaseURL:  srv.URL,
		Mix:      SmokeMix(),
		Rate:     25,
		Duration: 1500 * time.Millisecond,
		Seed:     1,
		Window:   500 * time.Millisecond,
		Logf:     t.Logf,
	}
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatalf("no jobs completed: %+v", res)
	}
	// Every non-shed arrival must end exactly once.
	if res.Completed+res.Failed != res.Scheduled-res.Shed {
		t.Fatalf("accounting leak: scheduled %d shed %d completed %d failed %d",
			res.Scheduled, res.Shed, res.Completed, res.Failed)
	}
	if res.Hist.Count() != res.Completed {
		t.Fatalf("histogram count %d != completed %d", res.Hist.Count(), res.Completed)
	}
	if res.CounterDeltas["jobs.submitted"] == 0 {
		t.Errorf("no jobs.submitted delta scraped from /metrics: %v", res.CounterDeltas)
	}
	if len(res.PlanDeltas) == 0 {
		t.Error("no per-plan attribution scraped from /metrics")
	}
	for _, p := range res.PlanDeltas {
		if p.Imbalance != p.Imbalance || (p.BusyNs <= 0 && p.Imbalance != 0) {
			t.Errorf("plan %s: bad imbalance %v for busy %d", p.Name, p.Imbalance, p.BusyNs)
		}
	}

	run := ToLatencyRun("test@25rps", opts, res)
	if run.P95Ms < run.P50Ms || run.MaxMs < run.P99Ms {
		t.Fatalf("percentiles not monotone: %+v", run)
	}
	if run.Completed != res.Completed || run.AchievedRPS <= 0 {
		t.Fatalf("conversion lost counts: %+v", run)
	}
	if len(run.Windows) == 0 {
		t.Fatal("no percentile-over-time windows")
	}

	dir := t.TempDir()
	path, err := SavePercentileSVG(dir, run)
	if err != nil {
		t.Fatal(err)
	}
	svg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(svg), "<svg") || !strings.Contains(string(svg), "p99") {
		t.Fatal("figure missing svg structure or p99 series")
	}
	if filepath.Base(path) != "load_latency_test_25rps.svg" {
		t.Fatalf("unexpected figure name %s", path)
	}
}

// TestRunBackpressure drives a saturated server (tiny queues, one slow
// runner) and checks the 429 path: retries happen, the in-flight cap
// sheds, and nothing is double counted.
func TestRunBackpressure(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a live server for ~1s")
	}
	// Smoke jobs finish in milliseconds; hold each one ~20 ms so the single
	// runner is actually slow and the queues fill.
	disarm := faultinject.Arm(faultinject.SiteJobRun, func(any) error {
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	defer disarm()
	srv := startServer(t, jobs.Config{
		Runners:            1,
		MaxQueued:          2,
		MaxQueuedPerTenant: 2,
		RetryAfter:         10 * time.Millisecond,
	})
	opts := Options{
		BaseURL:     srv.URL,
		Mix:         SmokeMix(),
		Rate:        200,
		Duration:    500 * time.Millisecond,
		Seed:        2,
		MaxInFlight: 8,
		RetryBudget: 2,
		Logf:        t.Logf,
	}
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Errorf("expected shed arrivals at 200/s with in-flight cap 8: %+v", res)
	}
	if res.Retries == 0 && res.Saturated == 0 {
		t.Errorf("expected 429 backpressure against tiny queues: %+v", res)
	}
	if res.Completed+res.Failed != res.Scheduled-res.Shed {
		t.Fatalf("accounting leak under saturation: %+v", res)
	}
}

// TestRunUnreachableServer pins the fast-fail path.
func TestRunUnreachableServer(t *testing.T) {
	_, err := Run(context.Background(), Options{
		BaseURL:  "http://127.0.0.1:1",
		Mix:      SmokeMix(),
		Rate:     1,
		Duration: time.Second,
	})
	if err == nil || !strings.Contains(err.Error(), "not reachable") {
		t.Fatalf("want reachability error, got %v", err)
	}
}
