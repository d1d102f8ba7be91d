// Command obscheck validates the observability artifacts a symprop run
// emits: the -metrics JSON (aggregated per-plan engine counters), the
// -trace JSONL (one event per completed sweep), the -serve-metrics JSON
// (symprop-serve's /metrics document: control-plane counters plus per-plan
// metrics), and the -bench BENCH_*.json latency section cmd/symprop-load
// writes. It is the schema gate behind `make obs-smoke` and
// `make load-smoke` — a broken field rename, a plan that stops reporting,
// or a NaN leaking into an imbalance column fails CI here instead of
// silently producing empty dashboards.
//
// Usage:
//
//	go run ./tools/obscheck -metrics m.json -trace t.jsonl [-sweeps N]
//	go run ./tools/obscheck -serve-metrics metrics.json
//	go run ./tools/obscheck -bench BENCH_2026-08-07.json
//
// Checks:
//   - metrics parses as a []obs.PlanMetrics with sorted, non-empty names;
//   - every plan name belongs to the registered plan set (the same names
//     faultinject sites use), counters are positive and consistent;
//   - the trace parses line-by-line as obs.TraceEvent with contiguous
//     sweep indices, and (with -sweeps) exactly N events;
//   - every plan named in a trace event's deltas also appears in the
//     metrics aggregate;
//   - serve-metrics counters use registered prefixes (jobs.*,
//     fusion.miss*) with non-negative values, and its plans pass the same
//     per-plan validation;
//   - the bench latency section has monotone percentiles, consistent
//     request accounting, registered plan names, and finite imbalances.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"github.com/symprop/symprop/internal/bench"
	"github.com/symprop/symprop/internal/obs"
)

// registeredPlanPrefixes mirrors the exec.Plan names the kernels run. A
// metrics entry outside this set means a plan was renamed without updating
// this list — exactly the drift this tool exists to catch.
var registeredPlanPrefixes = []string{
	"s3ttmc.", "ucoo.", "nary.", "splatt.ttmc", "ttmctc.", "schedule.reduce", "mttkrp.", "svd.",
	"health.", "cpd.",
}

// registeredCounterPrefixes mirrors the control-plane counter families:
// the job server's jobs.* set (internal/jobs) and the fused-dispatch miss
// counters (internal/kernels).
var registeredCounterPrefixes = []string{"jobs.", "fusion.miss"}

func main() {
	metricsPath := flag.String("metrics", "", "per-plan metrics JSON file ([]obs.PlanMetrics)")
	tracePath := flag.String("trace", "", "iteration trace JSONL file (requires -metrics)")
	sweeps := flag.Int("sweeps", -1, "expected number of trace events (-1 = any)")
	servePath := flag.String("serve-metrics", "", "symprop-serve /metrics document (counters + plans)")
	benchPath := flag.String("bench", "", "BENCH_*.json snapshot whose latency section to validate")
	flag.Parse()
	if *metricsPath == "" && *servePath == "" && *benchPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *tracePath != "" && *metricsPath == "" {
		fatal(fmt.Errorf("-trace needs -metrics for the plan cross-check"))
	}

	var report []string
	if *metricsPath != "" {
		plans, err := checkMetrics(*metricsPath)
		if err != nil {
			fatal(err)
		}
		report = append(report, fmt.Sprintf("%d plans", len(plans)))
		if *tracePath != "" {
			events, err := checkTrace(*tracePath, *sweeps, plans)
			if err != nil {
				fatal(err)
			}
			report = append(report, fmt.Sprintf("%d trace events", events))
		}
	}
	if *servePath != "" {
		counters, plans, err := checkServeMetrics(*servePath)
		if err != nil {
			fatal(err)
		}
		report = append(report, fmt.Sprintf("%d serve counters, %d serve plans", counters, plans))
	}
	if *benchPath != "" {
		runs, err := checkBenchLatency(*benchPath)
		if err != nil {
			fatal(err)
		}
		report = append(report, fmt.Sprintf("%d latency runs", runs))
	}
	fmt.Printf("obscheck: OK — %s\n", strings.Join(report, ", "))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "obscheck:", err)
	os.Exit(1)
}

func registered(name string) bool {
	return hasAnyPrefix(name, registeredPlanPrefixes)
}

func hasAnyPrefix(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// checkPlanList validates one []obs.PlanMetrics and returns the name set.
func checkPlanList(path string, ms []obs.PlanMetrics) (map[string]bool, error) {
	plans := make(map[string]bool, len(ms))
	prev := ""
	for i, m := range ms {
		if m.Name == "" {
			return nil, fmt.Errorf("%s: entry %d has an empty plan name", path, i)
		}
		if m.Name <= prev {
			return nil, fmt.Errorf("%s: plan names not strictly sorted (%q after %q)", path, m.Name, prev)
		}
		prev = m.Name
		if !registered(m.Name) {
			return nil, fmt.Errorf("%s: plan %q is not in the registered plan set %v", path, m.Name, registeredPlanPrefixes)
		}
		if m.Invocations <= 0 || m.Items < 0 || m.BusyNs < 0 || m.SpanNs < 0 {
			return nil, fmt.Errorf("%s: plan %q has impossible counters: %+v", path, m.Name, m)
		}
		if math.IsNaN(m.Imbalance) || math.IsInf(m.Imbalance, 0) {
			return nil, fmt.Errorf("%s: plan %q imbalance is %v", path, m.Name, m.Imbalance)
		}
		if m.BusyNs > 0 && m.Imbalance < 1 {
			return nil, fmt.Errorf("%s: plan %q imbalance %g < 1 (max/mean busy cannot be below 1)", path, m.Name, m.Imbalance)
		}
		if m.BusyNs == 0 && m.Imbalance != 0 {
			return nil, fmt.Errorf("%s: plan %q idle but imbalance %g (want the guarded 0)", path, m.Name, m.Imbalance)
		}
		plans[m.Name] = true
	}
	return plans, nil
}

// checkMetrics validates the aggregate file and returns the plan-name set.
func checkMetrics(path string) (map[string]bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ms []obs.PlanMetrics
	if err := json.Unmarshal(raw, &ms); err != nil {
		return nil, fmt.Errorf("%s: not a PlanMetrics array: %w", path, err)
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("%s: no plans recorded (observability wired up but nothing reported)", path)
	}
	return checkPlanList(path, ms)
}

// checkServeMetrics validates the job server's /metrics document.
func checkServeMetrics(path string) (counters, plans int, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	var doc struct {
		Counters map[string]int64  `json:"counters"`
		Plans    []obs.PlanMetrics `json:"plans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return 0, 0, fmt.Errorf("%s: not a /metrics document: %w", path, err)
	}
	if len(doc.Counters) == 0 {
		return 0, 0, fmt.Errorf("%s: no counters (a serving run always records admissions)", path)
	}
	for name, v := range doc.Counters {
		if !hasAnyPrefix(name, registeredCounterPrefixes) {
			return 0, 0, fmt.Errorf("%s: counter %q is not in the registered counter set %v",
				path, name, registeredCounterPrefixes)
		}
		if v < 0 {
			return 0, 0, fmt.Errorf("%s: counter %q is negative (%d)", path, name, v)
		}
	}
	if doc.Counters["jobs.submitted"] <= 0 {
		return 0, 0, fmt.Errorf("%s: jobs.submitted is 0 — the run never admitted anything", path)
	}
	if _, err := checkPlanList(path, doc.Plans); err != nil {
		return 0, 0, err
	}
	if doc.Counters["jobs.succeeded"] > 0 && len(doc.Plans) == 0 {
		return 0, 0, fmt.Errorf("%s: jobs succeeded but no plan metrics recorded", path)
	}
	return len(doc.Counters), len(doc.Plans), nil
}

// checkBenchLatency validates a snapshot's latency section.
func checkBenchLatency(path string) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var snap bench.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return 0, fmt.Errorf("%s: not a bench snapshot: %w", path, err)
	}
	if snap.Latency == nil || len(snap.Latency.Runs) == 0 {
		return 0, fmt.Errorf("%s: no latency section (did symprop-load -bench-out run?)", path)
	}
	for _, r := range snap.Latency.Runs {
		if r.Name == "" {
			return 0, fmt.Errorf("%s: latency run with empty name", path)
		}
		if r.Completed > r.Submitted || r.Submitted > r.Scheduled {
			return 0, fmt.Errorf("%s: run %s: inconsistent accounting scheduled=%d submitted=%d completed=%d",
				path, r.Name, r.Scheduled, r.Submitted, r.Completed)
		}
		qs := []float64{r.P50Ms, r.P95Ms, r.P99Ms, r.MaxMs}
		for i := 1; i < len(qs); i++ {
			if qs[i] < qs[i-1] || qs[i-1] < 0 {
				return 0, fmt.Errorf("%s: run %s: percentiles not monotone: p50=%g p95=%g p99=%g max=%g",
					path, r.Name, r.P50Ms, r.P95Ms, r.P99Ms, r.MaxMs)
			}
		}
		for name, v := range r.Counters {
			if !hasAnyPrefix(name, registeredCounterPrefixes) {
				return 0, fmt.Errorf("%s: run %s: counter %q not registered", path, r.Name, name)
			}
			_ = v // deltas may legitimately be negative (gauges)
		}
		for _, p := range r.Plans {
			if !registered(p.Name) {
				return 0, fmt.Errorf("%s: run %s: plan %q not registered", path, r.Name, p.Name)
			}
			if math.IsNaN(p.Imbalance) || math.IsInf(p.Imbalance, 0) || p.Imbalance < 0 {
				return 0, fmt.Errorf("%s: run %s: plan %q imbalance %v", path, r.Name, p.Name, p.Imbalance)
			}
			if p.BusyNs <= 0 && p.Imbalance != 0 {
				return 0, fmt.Errorf("%s: run %s: plan %q idle but imbalance %g", path, r.Name, p.Name, p.Imbalance)
			}
		}
		prevStart := -1.0
		for _, w := range r.Windows {
			if w.StartSec <= prevStart || w.Count <= 0 {
				return 0, fmt.Errorf("%s: run %s: windows not strictly ordered or empty", path, r.Name)
			}
			prevStart = w.StartSec
		}
	}
	return len(snap.Latency.Runs), nil
}

// checkTrace validates the JSONL stream and returns the event count.
func checkTrace(path string, wantSweeps int, plans map[string]bool) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	n := 0
	first := -1
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev obs.TraceEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return 0, fmt.Errorf("%s: line %d: not a TraceEvent: %w", path, n+1, err)
		}
		if first == -1 {
			first = ev.Sweep
		}
		// Sweeps are contiguous; a resumed run may start past zero.
		if ev.Sweep != first+n {
			return 0, fmt.Errorf("%s: line %d: sweep %d, want %d (events must be contiguous)", path, n+1, ev.Sweep, first+n)
		}
		if ev.WallNs < 0 {
			return 0, fmt.Errorf("%s: sweep %d: negative wall time", path, ev.Sweep)
		}
		for name := range ev.Plans {
			if !plans[name] {
				return 0, fmt.Errorf("%s: sweep %d: plan %q not present in the metrics aggregate", path, ev.Sweep, name)
			}
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, fmt.Errorf("%s: empty trace", path)
	}
	if wantSweeps >= 0 && n != wantSweeps {
		return 0, fmt.Errorf("%s: %d trace events, want %d", path, n, wantSweeps)
	}
	return n, nil
}
