// Package obs is the per-plan observability layer behind the execution
// engine (DESIGN.md §9): low-overhead counters hooked into the one seam
// every kernel shares — exec.Run — plus per-sweep trace events the Tucker
// drivers emit into Result.Trace and an optional streaming JSONL sink.
//
// The design mirrors faultinject's disarmed fast path: with no collector
// installed (neither exec.Config.Metrics nor the process-global collector),
// the cost in exec.Run is one nil check plus one atomic load per plan
// invocation, and zero per item — Worker.Tick is untouched. An armed
// collector adds two time.Now calls per worker slot per invocation (busy
// time) and one mutex-guarded map update per invocation; that is noise
// next to any real kernel pass.
//
// Metrics answer "which plan burned the wall clock and was it balanced";
// they deliberately aggregate (sums, not histograms) so a collector's
// memory footprint is bounded by the registered plan set. Per-sweep
// attribution comes from snapshot deltas (DiffSnapshots), which is how the
// drivers build TraceEvent.Plans without any per-sweep reset.
package obs

import (
	"expvar"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// PlanMetrics is one plan's aggregated counters, as exported by Snapshot.
// All sums are over every recorded invocation of the plan.
type PlanMetrics struct {
	// Name is the exec.Plan name ("s3ttmc.owner", "schedule.reduce", ...).
	Name string `json:"name"`
	// Invocations counts exec.Run calls for this plan.
	Invocations int64 `json:"invocations"`
	// Items sums the item counts across invocations (worker slots for
	// PerWorker plans).
	Items int64 `json:"items"`
	// WorkerSpans sums the effective worker counts across invocations —
	// the number of per-slot busy intervals behind BusyNs.
	WorkerSpans int64 `json:"worker_spans"`
	// BusyNs sums every worker slot's busy time (scratch + body + engine
	// bookkeeping on that slot) across invocations.
	BusyNs int64 `json:"busy_ns"`
	// SpanNs sums the caller-observed wall time of each invocation
	// (fan-out through join and finish).
	SpanNs int64 `json:"span_ns"`
	// MaxBusyNs sums, per invocation, the slowest slot's busy time scaled
	// by the invocation's worker count. Dividing it by BusyNs yields
	// Imbalance; it is exported so deltas stay composable.
	MaxBusyNs int64 `json:"max_busy_ns"`
	// Imbalance is the load-imbalance ratio MaxBusyNs/BusyNs — the
	// busy-time-weighted mean of (max slot busy)/(mean slot busy) per
	// invocation. 1.0 is perfectly balanced; 0 when nothing was recorded.
	Imbalance float64 `json:"imbalance"`
}

type planAcc struct {
	invocations int64
	items       int64
	workerSpans int64
	busyNs      int64
	spanNs      int64
	maxBusyNs   int64
}

// Metrics is a per-plan counter collector. The zero value is not usable;
// construct with New. A nil *Metrics is valid everywhere one is accepted
// and records nothing.
type Metrics struct {
	mu    sync.Mutex
	plans map[string]*planAcc
	// next receives every plan recorded here as well (NewScoped); nil for
	// a collector of its own.
	next *Metrics

	// phase is the driver-provided label ("sweep-7") attached to pprof
	// samples while labels are enabled; stored atomically because drivers
	// set it between kernel calls while a concurrent snapshot may read it.
	phase  atomic.Pointer[string]
	labels atomic.Bool
}

// New returns an empty collector.
func New() *Metrics {
	return &Metrics{plans: make(map[string]*planAcc)}
}

// NewScoped returns an empty collector for one run's own plans that also
// records every plan into shared (nil: into nothing else). A run that
// shares a collector with other runs reads its attribution back from the
// scoped one, while the shared one still counts every plan of every run
// exactly once.
func NewScoped(shared *Metrics) *Metrics {
	m := New()
	m.next = shared
	return m
}

// Feeds reports whether a plan recorded into m is recorded into c: m is c,
// or m forwards to c (NewScoped). nil-safe; nothing feeds a nil c.
func (m *Metrics) Feeds(c *Metrics) bool {
	for ; m != nil; m = m.next {
		if m == c {
			return true
		}
	}
	return false
}

// EnablePprofLabels makes every plan run under this collector annotate its
// worker goroutines with pprof labels plan=<name>, phase=<current phase>,
// so CPU profiles attribute samples to plans. Off by default: labeling
// costs a context allocation per plan invocation.
func (m *Metrics) EnablePprofLabels() { m.labels.Store(true) }

// LabelsEnabled reports whether EnablePprofLabels was called on m or on a
// collector m forwards to; nil-safe.
func (m *Metrics) LabelsEnabled() bool {
	return m != nil && (m.labels.Load() || m.next.LabelsEnabled())
}

// SetPhase installs the phase label attached to subsequently recorded
// plans ("sweep-3"); nil-safe.
func (m *Metrics) SetPhase(phase string) {
	if m == nil {
		return
	}
	m.phase.Store(&phase)
}

// Phase returns the current phase label, "" before the first SetPhase.
func (m *Metrics) Phase() string {
	if m == nil {
		return ""
	}
	if p := m.phase.Load(); p != nil {
		return *p
	}
	return ""
}

// RecordPlan folds one plan invocation into the collector, and into the
// collector it forwards to: the effective worker count, the item count,
// the caller-observed wall span, and each slot's busy nanoseconds
// (len(busyNs) == workers). nil-safe.
func (m *Metrics) RecordPlan(name string, workers, items int, spanNs int64, busyNs []int64) {
	if m == nil {
		return
	}
	m.next.RecordPlan(name, workers, items, spanNs, busyNs)
	var sum, max int64
	for _, b := range busyNs {
		sum += b
		if b > max {
			max = b
		}
	}
	m.mu.Lock()
	acc := m.plans[name]
	if acc == nil {
		acc = &planAcc{}
		m.plans[name] = acc
	}
	acc.invocations++
	acc.items += int64(items)
	acc.workerSpans += int64(workers)
	acc.busyNs += sum
	acc.spanNs += spanNs
	acc.maxBusyNs += max * int64(workers)
	m.mu.Unlock()
}

// Snapshot returns the per-plan counters sorted by name. The result is a
// copy: safe to hold across further recording. nil-safe (returns nil).
func (m *Metrics) Snapshot() []PlanMetrics {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	out := make([]PlanMetrics, 0, len(m.plans))
	for name, acc := range m.plans {
		pm := PlanMetrics{
			Name:        name,
			Invocations: acc.invocations,
			Items:       acc.items,
			WorkerSpans: acc.workerSpans,
			BusyNs:      acc.busyNs,
			SpanNs:      acc.spanNs,
			MaxBusyNs:   acc.maxBusyNs,
		}
		pm.Imbalance = ImbalanceRatio(acc.maxBusyNs, acc.busyNs)
		out = append(out, pm)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ImbalanceRatio is the guarded load-imbalance quotient maxBusyNs/busyNs:
// 0 when busyNs is zero or negative, so an all-idle plan — or a metrics
// delta over an interval the plan never ran in — reports 0 instead of
// leaking NaN/Inf into -metrics JSON and BENCH_*.json columns. Every
// imbalance computed from PlanMetrics sums or deltas must go through it.
func ImbalanceRatio(maxBusyNs, busyNs int64) float64 {
	if busyNs <= 0 {
		return 0
	}
	return float64(maxBusyNs) / float64(busyNs)
}

// global is the process-wide collector exec.Run consults in addition to
// the per-config one — the hook for tools (cmd/symprop-bench -metrics)
// that cannot thread a collector through every call path.
var global atomic.Pointer[Metrics]

// SetGlobal installs m as the process-global collector (nil uninstalls).
// Every subsequent exec.Run records into it regardless of the run's own
// configuration. Intended for whole-process tools, not libraries.
func SetGlobal(m *Metrics) {
	global.Store(m)
}

// Global returns the process-global collector, nil when none is installed.
// One atomic load — this is the disarmed fast path's only cost.
func Global() *Metrics {
	return global.Load()
}

// PublishExpvar exposes m's snapshot as the expvar variable name (JSON
// array of PlanMetrics, rendered lazily on each /debug/vars scrape).
// Publishing the same name twice is a no-op rather than expvar's panic, so
// CLI flags may be wired unconditionally.
func PublishExpvar(name string, m *Metrics) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return m.Snapshot() }))
}

// String renders a compact one-line-per-plan summary, mainly for debug
// logging and tests.
func (m *Metrics) String() string {
	s := ""
	for _, pm := range m.Snapshot() {
		s += fmt.Sprintf("%s: %d inv, %d items, busy %dns, span %dns, imbalance %.3f\n",
			pm.Name, pm.Invocations, pm.Items, pm.BusyNs, pm.SpanNs, pm.Imbalance)
	}
	return s
}
