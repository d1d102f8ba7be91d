// Command symprop-bench regenerates the tables and figures of the paper's
// evaluation (§VI) as text reports.
//
// Usage:
//
//	symprop-bench [-profile quick|paper|test] [-sweep rank|order|nnz|dim] <experiment>
//
// Experiments: table2 table3 fig4 fig5 fig6 fig7 fig8 fig9 idxiter all
//
// The memory budget simulating the paper's 256 GB node is controlled by
// SYMPROP_MEM_BUDGET (default 2G; e.g. SYMPROP_MEM_BUDGET=8G, 0 = unlimited).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"

	"github.com/symprop/symprop/internal/bench"
	"github.com/symprop/symprop/internal/obs"
)

func main() {
	profileFlag := flag.String("profile", "quick", "dataset scale: quick, paper, or test")
	sweepFlag := flag.String("sweep", "", "fig5 panel: rank, order, nnz, or dim (default: all four)")
	outFlag := flag.String("o", "", "write the report to this file instead of stdout")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	metricsOut := flag.String("metrics", "", "write the per-plan engine counters and runtime counters (fused-dispatch misses by order/rank/reason) of every run as JSON to this file")
	svgDir := flag.String("svgdir", "", "also write sweep/convergence figures as SVG files into this directory")
	csvDir := flag.String("csvdir", "", "also write every experiment table as CSV into this directory")
	flag.Usage = usage
	flag.Parse()

	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	profile, err := bench.ParseProfile(*profileFlag)
	if err != nil {
		fatal(err)
	}
	var w io.Writer = os.Stdout
	if *outFlag != "" {
		f, err := os.Create(*outFlag)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fatal(err)
		}
		bench.SetSVGDir(*svgDir)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
		bench.SetCSVDir(*csvDir)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *metricsOut != "" {
		// The global collectors catch every engine plan and runtime counter
		// the experiments produce — including the kernels' fused-dispatch
		// miss counters (fusion.miss[order= rank= reason=]) — without
		// threading options through the bench harness.
		m := obs.New()
		obs.SetGlobal(m)
		c := obs.NewCounters()
		obs.SetGlobalCounters(c)
		defer func() {
			out := struct {
				Plans    []obs.PlanMetrics `json:"plans"`
				Counters map[string]int64  `json:"counters,omitempty"`
			}{m.Snapshot(), c.Snapshot()}
			buf, err := json.MarshalIndent(out, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*metricsOut, append(buf, '\n'), 0o644); err != nil {
				fatal(err)
			}
		}()
	}

	runFig5 := func() error {
		sweeps := []bench.Sweep{bench.SweepRank, bench.SweepOrder, bench.SweepNNZ, bench.SweepDim}
		if *sweepFlag != "" {
			sweeps = []bench.Sweep{bench.Sweep(*sweepFlag)}
		}
		for _, s := range sweeps {
			if err := bench.Fig5(w, profile, s); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}

	experiments := map[string]func() error{
		"table2":  func() error { return bench.Table2(w, profile) },
		"table3":  func() error { return bench.Table3(w, profile) },
		"fig4":    func() error { return bench.Fig4(w, profile) },
		"fig5":    runFig5,
		"fig6":    func() error { return bench.Fig6(w, profile) },
		"fig7":    func() error { return bench.Fig7(w, profile) },
		"fig8":    func() error { return bench.Fig8(w, profile) },
		"fig9":    func() error { return bench.Fig9(w, profile) },
		"idxiter": func() error { return bench.IdxIter(w, profile) },
		"ablate":  func() error { return bench.Ablate(w, profile) },
		"verify":  func() error { return bench.Verify(w, 30, 1) },
	}

	name := flag.Arg(0)
	if name == "all" {
		for _, key := range []string{"verify", "table3", "table2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "idxiter", "ablate"} {
			if err := experiments[key](); err != nil {
				fatal(fmt.Errorf("%s: %w", key, err))
			}
			fmt.Fprintln(w)
		}
		return
	}
	run, ok := experiments[name]
	if !ok {
		fatal(fmt.Errorf("unknown experiment %q", name))
	}
	if err := run(); err != nil {
		fatal(err)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `symprop-bench regenerates the paper's tables and figures.

usage: symprop-bench [flags] <experiment>

experiments:
  table3   dataset inventory (paper Table III)
  table2   complexity model (paper Table II)
  fig4     operation comparison across datasets
  fig5     parameter sweeps (use -sweep to pick one panel)
  fig6     thread scalability
  fig7     HOOI vs HOQRI total runtime
  fig8     per-phase breakdown
  fig9     convergence traces
  idxiter  index-iteration ablation (paper section VI-B.4)
  ablate   design-choice ablations 2-5 (memoization, storage, layout, HOOI SVD)
  verify   cross-implementation equivalence gate (all kernels vs brute force)
  all      everything above

flags:
`)
	flag.PrintDefaults()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "symprop-bench:", err)
	os.Exit(1)
}
