package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestRecordAndSnapshot(t *testing.T) {
	m := New()
	m.RecordPlan("b.plan", 2, 100, 50, []int64{10, 30})
	m.RecordPlan("a.plan", 1, 7, 9, []int64{9})
	m.RecordPlan("b.plan", 2, 100, 40, []int64{20, 20})

	snap := m.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("got %d plans, want 2", len(snap))
	}
	if snap[0].Name != "a.plan" || snap[1].Name != "b.plan" {
		t.Fatalf("snapshot not sorted by name: %v, %v", snap[0].Name, snap[1].Name)
	}
	b := snap[1]
	if b.Invocations != 2 || b.Items != 200 || b.WorkerSpans != 4 {
		t.Errorf("b.plan counters wrong: %+v", b)
	}
	if b.BusyNs != 80 || b.SpanNs != 90 {
		t.Errorf("b.plan busy/span wrong: %+v", b)
	}
	// max·workers per invocation: 30·2 + 20·2 = 100; imbalance 100/80.
	if b.MaxBusyNs != 100 {
		t.Errorf("b.plan MaxBusyNs = %d, want 100", b.MaxBusyNs)
	}
	if got, want := b.Imbalance, 1.25; got != want {
		t.Errorf("b.plan Imbalance = %v, want %v", got, want)
	}
	a := snap[0]
	if a.Imbalance != 1.0 {
		t.Errorf("single-worker plan imbalance = %v, want 1.0", a.Imbalance)
	}
}

func TestNilMetricsSafe(t *testing.T) {
	var m *Metrics
	m.RecordPlan("x", 1, 1, 1, []int64{1})
	m.SetPhase("p")
	if m.Phase() != "" || m.LabelsEnabled() || m.Snapshot() != nil {
		t.Error("nil collector should observe nothing")
	}
}

func TestPhaseAndLabels(t *testing.T) {
	m := New()
	if m.Phase() != "" {
		t.Errorf("initial phase %q, want empty", m.Phase())
	}
	m.SetPhase("sweep-3")
	if m.Phase() != "sweep-3" {
		t.Errorf("phase %q, want sweep-3", m.Phase())
	}
	if m.LabelsEnabled() {
		t.Error("labels enabled by default")
	}
	m.EnablePprofLabels()
	if !m.LabelsEnabled() {
		t.Error("labels not enabled after EnablePprofLabels")
	}
}

func TestDiffSnapshots(t *testing.T) {
	m := New()
	m.RecordPlan("p1", 2, 10, 5, []int64{1, 2})
	before := m.Snapshot()
	m.RecordPlan("p1", 2, 10, 5, []int64{2, 2})
	m.RecordPlan("p2", 1, 3, 4, []int64{4})
	d := DiffSnapshots(before, m.Snapshot())
	if len(d) != 2 {
		t.Fatalf("got %d deltas, want 2: %v", len(d), d)
	}
	if d["p1"].Invocations != 1 || d["p1"].Items != 10 || d["p1"].BusyNs != 4 {
		t.Errorf("p1 delta wrong: %+v", d["p1"])
	}
	if d["p2"].Invocations != 1 || d["p2"].BusyNs != 4 {
		t.Errorf("p2 delta wrong: %+v", d["p2"])
	}
	if got := DiffSnapshots(m.Snapshot(), m.Snapshot()); got != nil {
		t.Errorf("idle interval should diff to nil, got %v", got)
	}
}

func TestConcurrentRecord(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				m.RecordPlan("p", 1, 1, 1, []int64{1})
			}
		}()
	}
	wg.Wait()
	snap := m.Snapshot()
	if len(snap) != 1 || snap[0].Invocations != 800 {
		t.Fatalf("concurrent recording lost updates: %+v", snap)
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	events := []TraceEvent{
		{Sweep: 0, Objective: 2, RelError: 0.5, Fit: 0.5, WallNs: 100,
			Plans: map[string]PlanDelta{"p": {Invocations: 1, Items: 10, BusyNs: 90, SpanNs: 95}}},
		{Sweep: 1, Objective: 1, RelError: 0.25, Fit: 0.75, WallNs: 90,
			Health: []string{"iteration 1: something"}, Checkpoint: "run.ckpt"},
	}
	for _, ev := range events {
		if err := sink.Emit(ev); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	for i, line := range lines {
		var got TraceEvent
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d not valid JSON: %v", i, err)
		}
		if got.Sweep != events[i].Sweep || got.Checkpoint != events[i].Checkpoint {
			t.Errorf("line %d round-trip mismatch: %+v", i, got)
		}
	}
}

func TestGlobalCollector(t *testing.T) {
	if Global() != nil {
		t.Fatal("global collector unexpectedly installed")
	}
	m := New()
	SetGlobal(m)
	defer SetGlobal(nil)
	if Global() != m {
		t.Fatal("SetGlobal did not install the collector")
	}
	SetGlobal(nil)
	if Global() != nil {
		t.Fatal("SetGlobal(nil) did not uninstall")
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	m := New()
	PublishExpvar("obs.test.plans", m)
	// A second publish with the same name must not panic.
	PublishExpvar("obs.test.plans", m)
}

// TestImbalanceRatioGuard pins the zero-busy denominator: an all-idle
// plan (or a delta over an idle interval) reports imbalance 0, never
// NaN/Inf — the value lands verbatim in /metrics JSON and BENCH_*.json
// columns, where a NaN would make the whole document unencodable.
func TestImbalanceRatioGuard(t *testing.T) {
	cases := []struct {
		maxBusy, busy int64
		want          float64
	}{
		{0, 0, 0},
		{100, 0, 0},  // recorded max but no busy sum: still guarded
		{100, -5, 0}, // clock skew must not produce a negative ratio
		{0, 100, 0},  // idle max over busy interval
		{150, 100, 1.5},
		{100, 100, 1},
	}
	for _, c := range cases {
		got := ImbalanceRatio(c.maxBusy, c.busy)
		if got != c.want {
			t.Errorf("ImbalanceRatio(%d, %d) = %v, want %v", c.maxBusy, c.busy, got, c.want)
		}
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("ImbalanceRatio(%d, %d) leaked %v", c.maxBusy, c.busy, got)
		}
	}
}

// TestSnapshotAllIdleImbalance: a plan recorded with zero-length busy
// slices (all workers idle) must snapshot with Imbalance 0 and survive a
// JSON round trip.
func TestSnapshotAllIdleImbalance(t *testing.T) {
	m := New()
	m.RecordPlan("idle.plan", 4, 16, 1000, []int64{0, 0, 0, 0})
	snap := m.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot len %d", len(snap))
	}
	pm := snap[0]
	if pm.BusyNs != 0 || pm.Imbalance != 0 {
		t.Fatalf("all-idle plan: busy %d imbalance %v, want 0/0", pm.BusyNs, pm.Imbalance)
	}
	if math.IsNaN(pm.Imbalance) || math.IsInf(pm.Imbalance, 0) {
		t.Fatalf("all-idle imbalance leaked %v", pm.Imbalance)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("all-idle snapshot not JSON-encodable: %v", err)
	}
}
