package tucker

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"github.com/symprop/symprop/internal/checkpoint"
	"github.com/symprop/symprop/internal/obs"
)

// obsPlanPrefixes mirrors the registered kernel plan names (the set
// tools/obscheck gates on). Every name a driver reports must fall in it.
var obsPlanPrefixes = []string{
	"s3ttmc.", "ucoo.", "nary.", "splatt.ttmc", "ttmctc.", "schedule.reduce",
}

func assertRegisteredPlans(t *testing.T, pms []obs.PlanMetrics) {
	t.Helper()
	if len(pms) == 0 {
		t.Fatal("no plan metrics recorded")
	}
	for _, pm := range pms {
		ok := false
		for _, p := range obsPlanPrefixes {
			if strings.HasPrefix(pm.Name, p) {
				ok = true
			}
		}
		if !ok {
			t.Errorf("plan %q outside the registered set %v", pm.Name, obsPlanPrefixes)
		}
		if pm.Invocations <= 0 {
			t.Errorf("plan %q recorded with no invocations", pm.Name)
		}
	}
}

// TestTraceOneEventPerSweep is the core trace contract: every driver
// appends exactly one event per completed sweep, with contiguous sweep
// indices, the convergence scalars mirrored from the Result arrays, and
// per-sweep plan deltas drawn from the registered plan set.
func TestTraceOneEventPerSweep(t *testing.T) {
	x := testTensor(t, 3, 12, 60, 10)
	for _, d := range resumableDrivers() {
		t.Run(d.name, func(t *testing.T) {
			res, err := d.run(x, Options{Rank: 3, MaxIters: 5, Seed: 4, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Trace) != res.Iters {
				t.Fatalf("trace has %d events, want one per sweep (%d)", len(res.Trace), res.Iters)
			}
			for i, ev := range res.Trace {
				if ev.Sweep != i {
					t.Fatalf("event %d has sweep %d", i, ev.Sweep)
				}
				if ev.WallNs < 0 {
					t.Errorf("sweep %d: negative wall time", i)
				}
				if ev.Objective != res.Objective[i] || ev.RelError != res.RelError[i] {
					t.Errorf("sweep %d: scalars diverge from Result arrays", i)
				}
				if len(ev.Plans) == 0 {
					t.Errorf("sweep %d: no per-plan deltas", i)
				}
				for name, d := range ev.Plans {
					ok := false
					for _, p := range obsPlanPrefixes {
						if strings.HasPrefix(name, p) {
							ok = true
						}
					}
					if !ok {
						t.Errorf("sweep %d: plan %q outside the registered set", i, name)
					}
					if d.Invocations <= 0 {
						t.Errorf("sweep %d: plan %q delta has no invocations", i, name)
					}
				}
			}
			assertRegisteredPlans(t, res.PlanMetrics)
		})
	}
}

// TestTraceSurvivesResume checks the snapshot carries the trace: a run
// resumed from iteration k must return the full contiguous event list
// 0..N-1, matching the straight run sweep for sweep.
func TestTraceSurvivesResume(t *testing.T) {
	const n, k = 6, 3
	x := testTensor(t, 3, 12, 60, 10)
	base := Options{Rank: 3, MaxIters: n, Seed: 4, Workers: 2}
	for _, d := range resumableDrivers() {
		t.Run(d.name, func(t *testing.T) {
			straight, err := d.run(x, base)
			if err != nil {
				t.Fatal(err)
			}
			ckpt := filepath.Join(t.TempDir(), "k.ckpt")
			opts := base
			opts.MaxIters = k
			opts.CheckpointPath = ckpt
			opts.CheckpointEvery = 1
			if _, err := d.run(x, opts); err != nil {
				t.Fatal(err)
			}
			state, err := checkpoint.Load(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if len(state.Trace) != k {
				t.Fatalf("snapshot holds %d trace events, want %d (event must precede save)", len(state.Trace), k)
			}
			opts = base
			opts.Resume = state
			resumed, err := d.run(x, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(resumed.Trace) != len(straight.Trace) {
				t.Fatalf("resumed trace has %d events, straight %d", len(resumed.Trace), len(straight.Trace))
			}
			for i := range straight.Trace {
				if resumed.Trace[i].Sweep != straight.Trace[i].Sweep {
					t.Fatalf("event %d: sweep %d vs %d", i, resumed.Trace[i].Sweep, straight.Trace[i].Sweep)
				}
				if resumed.Trace[i].RelError != straight.Trace[i].RelError {
					t.Fatalf("event %d: rel_error diverges across resume", i)
				}
			}
		})
	}
}

type memSink struct {
	events []obs.TraceEvent
	fail   bool
}

func (s *memSink) Emit(ev obs.TraceEvent) error {
	if s.fail {
		return errors.New("sink full")
	}
	s.events = append(s.events, ev)
	return nil
}

// TestTraceSinkStreamsEveryEvent: the optional sink receives the same
// events, in order, as Result.Trace accumulates.
func TestTraceSinkStreamsEveryEvent(t *testing.T) {
	x := testTensor(t, 3, 12, 60, 10)
	sink := &memSink{}
	res, err := HOOI(x, Options{Rank: 3, MaxIters: 5, Seed: 4, TraceSink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.events) != len(res.Trace) {
		t.Fatalf("sink got %d events, Result.Trace has %d", len(sink.events), len(res.Trace))
	}
	for i := range sink.events {
		if sink.events[i].Sweep != res.Trace[i].Sweep {
			t.Fatalf("event %d: sink sweep %d, trace sweep %d", i, sink.events[i].Sweep, res.Trace[i].Sweep)
		}
	}
}

// TestTraceSinkFailureIsHealthEvent: a failing sink degrades to health
// events — the decomposition itself must still succeed with a full trace.
func TestTraceSinkFailureIsHealthEvent(t *testing.T) {
	x := testTensor(t, 3, 12, 60, 10)
	res, err := HOOI(x, Options{Rank: 3, MaxIters: 3, Seed: 4, TraceSink: &memSink{fail: true}})
	if err != nil {
		t.Fatalf("sink failure must not fail the run: %v", err)
	}
	if len(res.Trace) != res.Iters {
		t.Fatalf("trace truncated by sink failure: %d events for %d sweeps", len(res.Trace), res.Iters)
	}
	found := false
	for _, ev := range res.Health.Events {
		if strings.Contains(ev, "trace sink failed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no health event for the failing sink; health = %v", res.Health.Events)
	}
}

// TestOptionsMetricsSharedCollector: a caller-supplied collector sees the
// same aggregate the driver returns in Result.PlanMetrics.
func TestOptionsMetricsSharedCollector(t *testing.T) {
	x := testTensor(t, 3, 12, 60, 10)
	m := obs.New()
	res, err := HOOI(x, Options{Rank: 3, MaxIters: 4, Seed: 4, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if len(snap) != len(res.PlanMetrics) {
		t.Fatalf("collector has %d plans, Result.PlanMetrics %d", len(snap), len(res.PlanMetrics))
	}
	for i := range snap {
		if snap[i] != res.PlanMetrics[i] {
			t.Fatalf("plan %d: collector %+v != result %+v", i, snap[i], res.PlanMetrics[i])
		}
	}
	assertRegisteredPlans(t, snap)
}
