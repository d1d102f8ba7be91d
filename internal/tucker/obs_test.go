package tucker

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/symprop/symprop/internal/checkpoint"
	"github.com/symprop/symprop/internal/obs"
)

// obsPlanPrefixes mirrors the registered kernel plan names (the set
// tools/obscheck gates on). Every name a driver reports must fall in it.
var obsPlanPrefixes = []string{
	"s3ttmc.", "ucoo.", "nary.", "splatt.ttmc", "ttmctc.", "schedule.reduce", "svd.", "health.",
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

// planCounts maps each plan to its invocation and item counts: the
// deterministic part of a PlanMetrics list (times vary run to run).
func planCounts(pms []obs.PlanMetrics) map[string][2]int64 {
	out := make(map[string][2]int64, len(pms))
	for _, pm := range pms {
		out[pm.Name] = [2]int64{pm.Invocations, pm.Items}
	}
	return out
}

// sweepCounts is planCounts for each TraceEvent's per-sweep deltas.
func sweepCounts(trace []obs.TraceEvent) []map[string][2]int64 {
	out := make([]map[string][2]int64, len(trace))
	for i, ev := range trace {
		out[i] = make(map[string][2]int64, len(ev.Plans))
		for name, d := range ev.Plans {
			out[i][name] = [2]int64{d.Invocations, d.Items}
		}
	}
	return out
}

// assertOwnWork checks that a run on a shared collector reports exactly
// the plan work of the same run on a collector of its own.
func assertOwnWork(t *testing.T, got, solo *Result) {
	t.Helper()
	if g, w := fmt.Sprint(planCounts(got.PlanMetrics)), fmt.Sprint(planCounts(solo.PlanMetrics)); g != w {
		t.Errorf("PlanMetrics %s, want the run's own %s", g, w)
	}
	if g, w := fmt.Sprint(sweepCounts(got.Trace)), fmt.Sprint(sweepCounts(solo.Trace)); g != w {
		t.Errorf("trace plans %s, want the run's own %s", g, w)
	}
}

// assertCountedOnce checks that the shared collector holds every plan of
// runs exactly once: the sum of the runs' own counts.
func assertCountedOnce(t *testing.T, m *obs.Metrics, runs ...*Result) {
	t.Helper()
	want := map[string][2]int64{}
	for _, r := range runs {
		for name, c := range planCounts(r.PlanMetrics) {
			w := want[name]
			want[name] = [2]int64{w[0] + c[0], w[1] + c[1]}
		}
	}
	if g, w := fmt.Sprint(planCounts(m.Snapshot())), fmt.Sprint(want); g != w {
		t.Errorf("shared collector %s, want each run's plans once: %s", g, w)
	}
}

// TestSharedCollectorSequentialRuns: two runs one after the other on one
// collector each report only their own plans, in Result.PlanMetrics and
// in every trace event, while the collector counts both. The shared
// collector may also be the process-global one, which exec.Run records
// into on its own: it still counts each plan once.
func TestSharedCollectorSequentialRuns(t *testing.T) {
	x := testTensor(t, 3, 12, 60, 10)
	opts := Options{Rank: 3, MaxIters: 3, Seed: 4, Workers: 2}
	solo, err := HOQRI(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, global := range []bool{false, true} {
		t.Run(fmt.Sprintf("global=%v", global), func(t *testing.T) {
			m := obs.New()
			if global {
				prev := obs.Global()
				obs.SetGlobal(m)
				defer obs.SetGlobal(prev)
			}
			o := opts
			o.Metrics = m
			first, err := HOQRI(x, o)
			if err != nil {
				t.Fatal(err)
			}
			second, err := HOQRI(x, o)
			if err != nil {
				t.Fatal(err)
			}
			assertOwnWork(t, first, solo)
			assertOwnWork(t, second, solo)
			assertCountedOnce(t, m, first, second)
		})
	}
}

// TestSharedCollectorConcurrentRuns: runs in flight at the same time on
// one collector, as the job server's runners share its Config.Metrics,
// each report only their own plans.
func TestSharedCollectorConcurrentRuns(t *testing.T) {
	x := testTensor(t, 3, 12, 60, 10)
	opts := Options{Rank: 3, MaxIters: 6, Seed: 4, Workers: 2}
	solo, err := HOQRI(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.New()
	opts.Metrics = m
	const runs = 3
	results := make([]*Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = HOQRI(x, opts)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		assertOwnWork(t, results[i], solo)
	}
	assertCountedOnce(t, m, results...)
}
