// Command perfbench is the repository benchmark. It runs one named workload
// against the library in-process, checks the outputs, and prints every
// metric by name with its unit. The last line of standard output is the
// machine-readable result:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, measured with no
// tracing; with --trace 1 the workload runs again as a traced replay and the
// metrics are the per-layer set. See README.md for the workloads, the
// metrics and how the layers reconcile.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef is one catalogued metric. BENCHMARK.json lists the same names,
// units and directions (TestCatalogueMatchesBenchmarkJSON keeps them equal).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the library sees; every timed run
// reports all of them.
var endToEnd = []metricDef{
	{"solve_s", "s", "lower"},
	{"job_p50_ms", "ms", "lower"},
	{"job_p95_ms", "ms", "lower"},
	{"rel_error", "ratio", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are the metrics of single layers; every traced run reports all
// of them, and a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"failed_frac", "ratio", "lower"},
	{"input.build_s", "s", "lower"},
	{"input.unnz", "count", "higher"},
	{"input.alldistinct_frac", "ratio", "higher"},
	{"kernels.s3ttmc_ms", "ms", "lower"},
	{"kernels.calls", "count", "lower"},
	{"kernels.model_gflop", "GFLOP", "lower"},
	{"kernels.gflops", "GFLOP/s", "higher"},
	{"kernels.fused_frac", "ratio", "higher"},
	{"kernels.fusion_miss", "count", "lower"},
	{"kernels.speedup_2w", "x", "higher"},
	{"exec.s3ttmc_owner.busy_ms", "ms", "lower"},
	{"exec.s3ttmc_owner.imbalance", "ratio", "lower"},
	{"exec.schedule_reduce.busy_ms", "ms", "lower"},
	{"exec.shard_fanout.busy_ms", "ms", "lower"},
	{"exec.shard_merge.busy_ms", "ms", "lower"},
	{"exec.shard_gram.busy_ms", "ms", "lower"},
	{"exec.shard_tc.busy_ms", "ms", "lower"},
	{"linalg.multn_ms", "ms", "lower"},
	{"linalg.mulntw_ms", "ms", "lower"},
	{"linalg.orth_ms", "ms", "lower"},
	{"linalg.expand_ms", "ms", "lower"},
	{"linalg.gram_ms", "ms", "lower"},
	{"linalg.eig_ms", "ms", "lower"},
	{"linalg.gemm_gflops", "GFLOP/s", "higher"},
	{"tucker.sweep_ms", "ms", "lower"},
	{"tucker.init_ms", "ms", "lower"},
	{"tucker.final_core_ms", "ms", "lower"},
	{"tucker.iters", "count", "lower"},
	{"tucker.phase.ttmc_ms", "ms", "lower"},
	{"tucker.phase.tc_ms", "ms", "lower"},
	{"tucker.phase.svd_ms", "ms", "lower"},
	{"tucker.phase.qr_ms", "ms", "lower"},
	{"tucker.phase.core_ms", "ms", "lower"},
	{"tucker.phase.other_ms", "ms", "lower"},
	{"tucker.unattributed_ms", "ms", "lower"},
	{"jobs.submit_ms", "ms", "lower"},
	{"jobs.queue_wait_ms", "ms", "lower"},
	{"jobs.run_ms", "ms", "lower"},
	{"jobs.observe_ms", "ms", "lower"},
	{"jobs.latency_p50_ms", "ms", "lower"},
	{"jobs.latency_p95_ms", "ms", "lower"},
	{"jobs.retries", "count", "lower"},
	{"jobs.rejected", "count", "lower"},
	{"jobs.spool_bytes_per_job", "bytes", "lower"},
	{"jobs.checkpoints_per_job", "count", "lower"},
	{"load.late_ms_max", "ms", "lower"},
	{"load.scheduled", "count", "higher"},
	{"trace.wall_ms", "ms", "lower"},
	{"trace.layers_ms", "ms", "lower"},
	{"trace.unattributed_ms", "ms", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
	{"trace.dominant_share", "ratio", "higher"},
	{"trace.dominant_ok", "bool", "higher"},
}

// report collects one run's metrics, checks and spans.
type report struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       bool               `json:"trace"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Metrics     map[string]float64 `json:"metrics"`
	Checks      []check            `json:"checks"`
	Notes       []string           `json:"notes"`
	Spans       []span             `json:"spans,omitempty"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

func newReport(workload string, seed int64, trace bool) *report {
	return &report{Workload: workload, Seed: seed, Trace: trace, Metrics: map[string]float64{}}
}

func (r *report) set(name string, v float64) { r.Metrics[name] = v }

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// op records one attempted operation (a solve, a replay, a job or a
// run-level check); ok=false counts it as failed.
func (r *report) op(ok bool) {
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

// verify records a named output check and counts it as an operation.
func (r *report) verify(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	r.op(ok)
}

func (r *report) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.Failed == 0
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "0: timed run (end-to-end metrics); 1: traced replay (per-layer metrics)")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the full per-run report (spans, checks, fingerprint)")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	rep := newReport(*name, *seed, *trace == 1)
	budget := time.Duration(*seconds) * time.Second
	var err error
	if rep.Trace {
		err = w.traced(rep, *seed, budget)
	} else {
		err = w.timed(rep, *seed, budget)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rep.set("failed_frac", float64(rep.Failed)/float64(max(rep.Attempted, 1)))
	rep.Fingerprint = takeFingerprint(rep)

	defs := endToEnd
	if rep.Trace {
		defs = perLayer
	}
	out := result{Correct: rep.correct(), Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: make(map[string]metricOut, len(defs))}
	for _, d := range defs {
		v, ok := rep.Metrics[d.name]
		if !ok && !rep.Trace {
			fmt.Fprintf(os.Stderr, "perfbench: %s: end-to-end metric %s was not measured\n", *name, d.name)
			return 1
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	printReport(rep)
	if err := saveReport(*outDir, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// printReport writes the human-readable part of the output: fingerprint,
// checks, notes and every metric measured (both sets), sorted by name.
func printReport(rep *report) {
	fp, _ := json.Marshal(rep.Fingerprint)
	fmt.Printf("workload %s seed %d trace %v\n", rep.Workload, rep.Seed, rep.Trace)
	fmt.Printf("fingerprint %s\n", fp)
	for _, c := range rep.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Printf("check %-28s %-6s %s\n", c.Name, status, c.Detail)
	}
	for _, n := range rep.Notes {
		fmt.Println(n)
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-30s %14.6g %s\n", n, rep.Metrics[n], units[n])
	}
}

// saveReport writes the full report, spans included, as JSON.
func saveReport(dir string, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("report dir: %w", err)
	}
	buf, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, rep.Seed, btoi(rep.Trace)))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	fmt.Printf("report %s\n", path)
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
