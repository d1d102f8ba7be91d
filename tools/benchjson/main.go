// Command benchjson runs the repository's Go benchmarks and writes a
// BENCH_<date>.json snapshot: parsed per-benchmark metrics for programmatic
// trend tracking plus the raw `go test -bench` text, which is exactly the
// format benchstat consumes. Usage:
//
//	go run ./tools/benchjson [-out BENCH_2026-01-02.json] [-benchtime 5x] [-count 3] [pkgs...]
//
// With no packages it benchmarks ./internal/kernels and ./internal/linalg,
// the two packages carrying the scheduling and GEMM benchmarks. To compare
// two snapshots with benchstat, feed it the .raw fields:
//
//	jq -r .raw BENCH_old.json > old.txt
//	jq -r .raw BENCH_new.json > new.txt
//	benchstat old.txt new.txt
//
// The snapshot schema lives in internal/bench, shared with benchguard
// (the regression gate) and symprop-load (which merges a `latency`
// section into the same files). Writing to an existing snapshot preserves
// any latency section already in it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/symprop/symprop/internal/bench"
)

func main() {
	out := flag.String("out", "", "output file (default BENCH_<today>.json)")
	benchtime := flag.String("benchtime", "5x", "value passed to -benchtime")
	count := flag.Int("count", 1, "value passed to -count")
	pattern := flag.String("bench", ".", "value passed to -bench")
	flag.Parse()

	pkgs := flag.Args()
	if len(pkgs) == 0 {
		pkgs = []string{"./internal/kernels", "./internal/linalg"}
	}
	args := append([]string{
		"test", "-run=^$", "-bench=" + *pattern,
		"-benchtime=" + *benchtime, "-benchmem",
		fmt.Sprintf("-count=%d", *count),
	}, pkgs...)

	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: go %s: %v\n", strings.Join(args, " "), err)
		os.Exit(1)
	}

	snap := bench.Snapshot{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		Command:    "go " + strings.Join(args, " "),
		Benchmarks: parseBenchLines(string(raw)),
		Raw:        string(raw),
	}

	path := *out
	if path == "" {
		path = "BENCH_" + snap.Date + ".json"
	}
	// Re-running over an existing snapshot (e.g. one symprop-load already
	// merged a latency section into) keeps the sections benchjson does not
	// own.
	if prev, err := os.ReadFile(path); err == nil {
		var old bench.Snapshot
		if json.Unmarshal(prev, &old) == nil {
			snap.Latency = old.Latency
		}
	}
	if err := writeSnapshot(path, &snap); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmark results)\n", path, len(snap.Benchmarks))
}

// writeSnapshot serializes the snapshot with stable indentation.
func writeSnapshot(path string, snap *bench.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseBenchLines extracts result lines of the form
//
//	BenchmarkName-8   	     123	   4567 ns/op	  89 B/op	   2 allocs/op
func parseBenchLines(raw string) []bench.Benchmark {
	var out []bench.Benchmark
	for _, line := range strings.Split(raw, "\n") {
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		iters, err1 := strconv.ParseInt(fields[1], 10, 64)
		ns, err2 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		b := bench.Benchmark{Name: fields[0], Iterations: iters, NsPerOp: ns}
		for i := 4; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "B/op":
				b.BytesPerOp = int64(v)
			case "allocs/op":
				b.AllocsOp = int64(v)
			default:
				// Custom b.ReportMetric columns (unit chosen by the bench).
				if b.Extra == nil {
					b.Extra = make(map[string]float64)
				}
				b.Extra[unit] = v
			}
		}
		out = append(out, b)
	}
	return out
}
