package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/hypergraph"
	"github.com/symprop/symprop/internal/kernels"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/plot"
	"github.com/symprop/symprop/internal/spsym"
	"github.com/symprop/symprop/internal/tucker"
)

// kernelSet runs the paper's four operation variants on one tensor and
// returns their measurements in the order SP, TC-SP, CSS, SPLATT (the bar
// groups of Fig. 4).
func kernelSet(p Profile, x *spsym.Tensor, rank int, seed int64) [4]Measurement {
	reps := p.Reps()
	budget := p.flopBudget()
	memBudget := memguard.FromEnv().Budget()
	workers := runtime.GOMAXPROCS(0)
	u := randomU(x.Dim, rank, seed)
	unnz := int64(x.NNZ())
	var out [4]Measurement

	// Classify each kernel from the memory and flop models before running:
	// OOM annotations come from the memory model (matching the paper's
	// figures), skip(slow) from the quick profile's flop budget.
	classify := func(memBytes, flops int64) (Measurement, bool) {
		if memBudget > 0 && memBytes > memBudget {
			return Measurement{Status: StatusOOM}, false
		}
		if flops > budget {
			return Measurement{Status: StatusSkipSlow}, false
		}
		return Measurement{}, true
	}

	// S3TTMc-SP.
	if m, run := classify(kernels.EstimateSymPropBytes(x, rank, workers), CSPTotal(x.Order, rank, unnz)); !run {
		out[0] = m
	} else {
		out[0] = timeOp(reps, func() error {
			_, err := kernels.S3TTMcSymProp(x, u, kernels.Options{Guard: memguard.FromEnv()})
			return err
		})
	}

	// S3TTMcTC-SP (adds the two times-core products).
	tcExtra := satMul(2, TCCost(x.Order, rank, int64(x.Dim)))
	if m, run := classify(kernels.EstimateSymPropBytes(x, rank, workers), satAdd(CSPTotal(x.Order, rank, unnz), tcExtra)); !run {
		out[1] = m
	} else {
		out[1] = timeOp(reps, func() error {
			_, err := kernels.S3TTMcTC(x, u, kernels.Options{Guard: memguard.FromEnv()})
			return err
		})
	}

	// S3TTMc-CSS.
	if m, run := classify(kernels.EstimateCSSBytes(x, rank, workers), CCSSTotal(x.Order, rank, unnz)); !run {
		out[2] = m
	} else {
		out[2] = timeOp(reps, func() error {
			_, err := kernels.S3TTMcCSS(x, u, kernels.Options{Guard: memguard.FromEnv()})
			return err
		})
	}

	// TTMc-SPLATT: the format is built once (the paper times the operation,
	// not I/O or format construction), but construction itself may OOM.
	m, run := classify(kernels.EstimateSPLATTBytes(x, rank), splattFlops(x, rank))
	if !run {
		out[3] = m
		return out
	}
	guard := memguard.FromEnv()
	splatt, err := kernels.NewSPLATT(x, guard)
	if err != nil {
		out[3] = timeOp(1, func() error { return err })
		return out
	}
	out[3] = timeOp(reps, func() error {
		_, err := splatt.TTMc(u, kernels.Options{Guard: guard})
		return err
	})
	return out
}

// splattFlops estimates the SPLATT TTMc cost: every expanded non-zero
// contributes to a chain of partial Kronecker products; the leaf level
// dominates at 2·R^{N-1} flops per expanded non-zero.
func splattFlops(x *spsym.Tensor, rank int) int64 {
	var per int64
	for l := 1; l <= x.Order-1; l++ {
		per = satAdd(per, 2*dense.Pow64(int64(rank), l))
	}
	return satMul(x.ExpandedNNZ(), per)
}

var opHeaders = []string{"dataset", "order", "dim", "unnz", "rank", "S3TTMc-SP", "S3TTMcTC-SP", "S3TTMc-CSS", "TTMc-SPLATT", "SP/CSS", "SP/SPLATT"}

// Fig4 regenerates the operation-comparison experiment (paper Fig. 4):
// the four kernels across the nine Table III datasets.
func Fig4(w io.Writer, p Profile) error {
	fmt.Fprintf(w, "Fig. 4: performance comparison of operations (profile=%s, budget=%s)\n\n", p, budgetString())
	var rows [][]string
	var bestCSS, bestSPLATT float64
	chart := &plot.Chart{
		Title:  "operation runtime per dataset (gaps = OOM/skip)",
		XLabel: "dataset index (Table III order)", YLabel: "seconds", LogY: true,
		Series: []plot.Series{
			{Name: "S3TTMc-SP", Slot: slotSymProp, Scatter: true},
			{Name: "S3TTMcTC-SP", Slot: slotSymPropTC, Scatter: true},
			{Name: "S3TTMc-CSS", Slot: slotCSS, Scatter: true},
			{Name: "TTMc-SPLATT", Slot: slotSPLATT, Scatter: true},
		},
	}
	for i, d := range p.Datasets() {
		x, err := d.GenerateTensor(1000 + int64(i))
		if err != nil {
			return err
		}
		ms := kernelSet(p, x, d.Rank, 2000+int64(i))
		rows = append(rows, []string{
			d.Name, fmt.Sprint(d.Order), fmt.Sprint(d.Dim), fmt.Sprint(x.NNZ()), fmt.Sprint(d.Rank),
			ms[0].Format(), ms[1].Format(), ms[2].Format(), ms[3].Format(),
			speedup(ms[2], ms[0]), speedup(ms[3], ms[0]),
		})
		for si := range chart.Series {
			chart.Series[si].X = append(chart.Series[si].X, float64(i+1))
			chart.Series[si].Y = append(chart.Series[si].Y, secondsOrGap(ms[si]))
		}
		if ms[0].Status == StatusOK && ms[2].Status == StatusOK {
			if s := ms[2].Seconds / ms[0].Seconds; s > bestCSS {
				bestCSS = s
			}
		}
		if ms[0].Status == StatusOK && ms[3].Status == StatusOK {
			if s := ms[3].Seconds / ms[0].Seconds; s > bestSPLATT {
				bestSPLATT = s
			}
		}
	}
	emitTable(w, "fig4", append([]string(nil), opHeaders...), rows)
	emitChart(w, chart, "fig4.svg")
	fmt.Fprintf(w, "\nmax speedup SP over CSS: %.1fx; SP over SPLATT: %.1fx\n", bestCSS, bestSPLATT)
	fmt.Fprintln(w, "expected shape: SPLATT fastest at order<=5, OOM at high order; CSS OOM at high order/rank; SP runs everywhere.")
	return nil
}

// Sweep identifies a Fig. 5 panel.
type Sweep string

// The four Fig. 5 panels.
const (
	SweepRank  Sweep = "rank"  // Fig. 5(a): Tucker rank
	SweepOrder Sweep = "order" // Fig. 5(b): tensor order
	SweepNNZ   Sweep = "nnz"   // Fig. 5(c): IOU non-zero count
	SweepDim   Sweep = "dim"   // Fig. 5(d): dimension size
)

// Fig5 regenerates one parameter-sweep panel of paper Fig. 5: vary a single
// parameter of the synthetic base tensor (order-7, dim, unnz, rank per the
// profile) and time all four kernels.
func Fig5(w io.Writer, p Profile, sweep Sweep) error {
	order, dim, nnz, rank := p.SweepBase()
	var points []int
	switch sweep {
	case SweepRank:
		points = p.SweepRanks()
	case SweepOrder:
		points = p.SweepOrders()
	case SweepNNZ:
		points = p.SweepNNZs()
	case SweepDim:
		points = p.SweepDims()
	default:
		return fmt.Errorf("bench: unknown sweep %q", sweep)
	}
	fmt.Fprintf(w, "Fig. 5(%s): sweep %s (base: order=%d dim=%d unnz=%d rank=%d; profile=%s)\n\n",
		sweep, sweep, order, dim, nnz, rank, p)

	var rows [][]string
	chart := &plot.Chart{
		Title:  fmt.Sprintf("S3TTMc runtime vs %s (order-%d base)", sweep, order),
		XLabel: string(sweep), YLabel: "seconds", LogY: true,
		Series: []plot.Series{
			{Name: "S3TTMc-SP", Slot: slotSymProp},
			{Name: "S3TTMcTC-SP", Slot: slotSymPropTC},
			{Name: "S3TTMc-CSS", Slot: slotCSS},
			{Name: "TTMc-SPLATT", Slot: slotSPLATT},
		},
	}
	for pi, v := range points {
		o, d, n, r := order, dim, nnz, rank
		switch sweep {
		case SweepRank:
			r = v
		case SweepOrder:
			o = v
		case SweepNNZ:
			n = v
		case SweepDim:
			d = v
		}
		if d < o+1 {
			d = o + 1
		}
		x, err := spsym.Random(spsym.RandomOptions{Order: o, Dim: d, NNZ: n, Seed: 3000 + int64(pi)})
		if err != nil {
			return err
		}
		ms := kernelSet(p, x, r, 4000+int64(pi))
		rows = append(rows, []string{
			fmt.Sprint(v), ms[0].Format(), ms[1].Format(), ms[2].Format(), ms[3].Format(),
			speedup(ms[2], ms[0]), speedup(ms[3], ms[0]),
		})
		for si := range chart.Series {
			chart.Series[si].X = append(chart.Series[si].X, float64(v))
			chart.Series[si].Y = append(chart.Series[si].Y, secondsOrGap(ms[si]))
		}
	}
	emitTable(w, "fig5-"+string(sweep), []string{string(sweep), "S3TTMc-SP", "S3TTMcTC-SP", "S3TTMc-CSS", "TTMc-SPLATT", "SP/CSS", "SP/SPLATT"}, rows)
	emitChart(w, chart, fmt.Sprintf("fig5-%s.svg", sweep))
	switch sweep {
	case SweepRank:
		fmt.Fprintln(w, "\nexpected shape: SP grows slowest with rank; CSS and SPLATT OOM as rank grows.")
	case SweepOrder:
		fmt.Fprintln(w, "\nexpected shape: SP reaches order 14; CSS dies ~4 orders earlier, SPLATT ~6.")
	case SweepNNZ:
		fmt.Fprintln(w, "\nexpected shape: all kernels linear in unnz; TC overhead shrinks as unnz grows.")
	case SweepDim:
		fmt.Fprintln(w, "\nexpected shape: mild growth with dim (Y size); TC's times-core term is linear in dim.")
	}
	return nil
}

// Fig6 regenerates the thread-scalability experiment (paper Fig. 6):
// S³TTMc and S³TTMcTC speedups over sequential on the walmart-trips and 7D
// stand-ins, sweeping worker counts up to NumCPU.
func Fig6(w io.Writer, p Profile) error {
	fmt.Fprintf(w, "Fig. 6: thread scalability (profile=%s, cpus=%d)\n\n", p, runtime.NumCPU())
	var workerPoints []int
	for v := 1; v <= runtime.NumCPU(); v *= 2 {
		workerPoints = append(workerPoints, v)
	}
	if last := workerPoints[len(workerPoints)-1]; last != runtime.NumCPU() {
		workerPoints = append(workerPoints, runtime.NumCPU())
	}
	for _, name := range []string{"walmart-trips", "7D"} {
		spec, err := lookupIn(p.Datasets(), name)
		if err != nil {
			return err
		}
		x, err := spec.GenerateTensor(77)
		if err != nil {
			return err
		}
		u := randomU(x.Dim, spec.Rank, 78)
		fmt.Fprintf(w, "%s (order=%d dim=%d unnz=%d rank=%d)\n", spec.Name, spec.Order, spec.Dim, x.NNZ(), spec.Rank)
		var rows [][]string
		chart := &plot.Chart{
			Title:  fmt.Sprintf("thread scaling on %s", spec.Name),
			XLabel: "workers", YLabel: "speedup over 1 worker",
			Series: []plot.Series{
				{Name: "S3TTMc", Slot: slotSymProp},
				{Name: "S3TTMcTC", Slot: slotSymPropTC},
			},
		}
		var scheds kernels.ScheduleCache
		var base, baseTC float64
		for _, workers := range workerPoints {
			m := timeOp(p.Reps(), func() error {
				_, err := kernels.S3TTMcSymProp(x, u, kernels.Options{
					Guard: memguard.FromEnv(), Workers: workers, Schedules: &scheds,
				})
				return err
			})
			mTC := timeOp(p.Reps(), func() error {
				_, err := kernels.S3TTMcTC(x, u, kernels.Options{Guard: memguard.FromEnv(), Workers: workers})
				return err
			})
			if m.Status != StatusOK || mTC.Status != StatusOK {
				return fmt.Errorf("bench: fig6 %s failed at %d workers: %v %v",
					name, workers, m.Err, mTC.Err)
			}
			if workers == 1 {
				base, baseTC = m.Seconds, mTC.Seconds
			}
			rows = append(rows, []string{
				fmt.Sprint(workers), m.Format(), fmt.Sprintf("%.2fx", base/m.Seconds),
				mTC.Format(), fmt.Sprintf("%.2fx", baseTC/mTC.Seconds),
			})
			chart.Series[0].X = append(chart.Series[0].X, float64(workers))
			chart.Series[0].Y = append(chart.Series[0].Y, base/m.Seconds)
			chart.Series[1].X = append(chart.Series[1].X, float64(workers))
			chart.Series[1].Y = append(chart.Series[1].Y, baseTC/mTC.Seconds)
		}
		emitTable(w, "fig6-"+spec.Name,
			[]string{"workers", "S3TTMc", "speedup", "S3TTMcTC", "speedup"}, rows)
		emitChart(w, chart, "fig6-"+spec.Name+".svg")
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "expected shape: near-linear scaling, better for the higher-rank dataset (more work per non-zero).")
	return nil
}

func lookupIn(specs []hypergraph.DatasetSpec, name string) (hypergraph.DatasetSpec, error) {
	for _, d := range specs {
		if d.Name == name {
			return d, nil
		}
	}
	return hypergraph.DatasetSpec{}, fmt.Errorf("bench: dataset %q not in profile", name)
}

// tuckerRun times one driver for the profile's fixed iteration count.
// No warm-up pass: a run is iters sweeps, which amortizes first-call
// effects internally.
func tuckerRun(algo func(*spsym.Tensor, tucker.Options) (*tucker.Result, error),
	x *spsym.Tensor, rank, iters int) (Measurement, *tucker.Result) {
	var res *tucker.Result
	m := timeOpNoWarmup(1, func() error {
		var err error
		res, err = algo(x, tucker.Options{
			Rank: rank, MaxIters: iters, Seed: 11, Guard: memguard.FromEnv(),
		})
		return err
	})
	return m, res
}

// tuckerComparison runs HOOI and HOQRI over the profile's datasets once and
// caches the outcome so Fig. 7 (times) and Fig. 8 (phase breakdown) share
// the same — expensive — measurements.
type tuckerOutcome struct {
	spec      hypergraph.DatasetSpec
	skipHOOI  bool
	skipHOQRI bool
	mHOOI     Measurement
	rHOOI     *tucker.Result
	mHOQRI    Measurement
	rHOQRI    *tucker.Result
}

var tuckerCache = struct {
	mu   sync.Mutex
	runs map[Profile][]tuckerOutcome
}{runs: make(map[Profile][]tuckerOutcome)}

func tuckerComparison(p Profile) ([]tuckerOutcome, error) {
	tuckerCache.mu.Lock()
	defer tuckerCache.mu.Unlock()
	if out, ok := tuckerCache.runs[p]; ok {
		return out, nil
	}
	iters := p.TuckerIters()
	budget := p.flopBudget()
	var out []tuckerOutcome
	for i, d := range p.Datasets() {
		x, err := d.GenerateTensor(5000 + int64(i))
		if err != nil {
			return nil, err
		}
		o := tuckerOutcome{spec: d}
		ttmc := CSPTotal(x.Order, d.Rank, int64(x.NNZ()))
		workers := runtime.GOMAXPROCS(0)
		memBudget := memguard.FromEnv().Budget()
		// Memory classification first (the paper's OOM annotations), then
		// per-algorithm flop gates: HOOI adds the SVD of the full unfolding,
		// HOQRI the times-core products and QR.
		fullUnfold := memguard.Float64Bytes(satMul(int64(x.Dim), dense.Pow64(int64(d.Rank), x.Order-1)))
		hooiMem := satBytes64(kernels.EstimateSymPropBytes(x, d.Rank, workers), fullUnfold)
		hoqriMem := kernels.EstimateSymPropBytes(x, d.Rank, workers)
		hooiFlops := satMul(satAdd(ttmc, SVDCost(x.Order, d.Rank, int64(x.Dim))), int64(iters))
		hoqriFlops := satMul(satAdd(ttmc, satAdd(satMul(2, TCCost(x.Order, d.Rank, int64(x.Dim))), QRCost(d.Rank, int64(x.Dim)))), int64(iters))
		switch {
		case memBudget > 0 && hooiMem > memBudget:
			o.mHOOI = Measurement{Status: StatusOOM}
		case hooiFlops > budget:
			o.skipHOOI = true
		default:
			o.mHOOI, o.rHOOI = tuckerRun(tucker.HOOI, x, d.Rank, iters)
		}
		switch {
		case memBudget > 0 && hoqriMem > memBudget:
			o.mHOQRI = Measurement{Status: StatusOOM}
		case hoqriFlops > budget:
			o.skipHOQRI = true
		default:
			o.mHOQRI, o.rHOQRI = tuckerRun(tucker.HOQRI, x, d.Rank, iters)
		}
		out = append(out, o)
	}
	tuckerCache.runs[p] = out
	return out, nil
}

// Fig7 regenerates the HOOI-vs-HOQRI total-runtime comparison (paper
// Fig. 7) over the profile's datasets for the fixed iteration count.
func Fig7(w io.Writer, p Profile) error {
	fmt.Fprintf(w, "Fig. 7: HOOI vs HOQRI total running time, %d iterations (profile=%s)\n\n", p.TuckerIters(), p)
	outcomes, err := tuckerComparison(p)
	if err != nil {
		return err
	}
	var rows [][]string
	chart := &plot.Chart{
		Title:  "HOOI vs HOQRI total runtime per dataset (gaps = OOM/skip)",
		XLabel: "dataset index (Table III order)", YLabel: "seconds", LogY: true,
		Series: []plot.Series{
			{Name: "HOOI", Slot: slotHOOI, Scatter: true},
			{Name: "HOQRI", Slot: slotHOQRI, Scatter: true},
		},
	}
	for i, o := range outcomes {
		hooiCell, hoqriCell := "skip(slow)", "skip(slow)"
		hooiPt, hoqriPt := math.NaN(), math.NaN()
		if !o.skipHOOI {
			hooiCell = o.mHOOI.Format()
			hooiPt = secondsOrGap(o.mHOOI)
		}
		if !o.skipHOQRI {
			hoqriCell = o.mHOQRI.Format()
			hoqriPt = secondsOrGap(o.mHOQRI)
		}
		rows = append(rows, []string{
			o.spec.Name, fmt.Sprint(o.spec.Rank), hooiCell, hoqriCell, speedup(o.mHOOI, o.mHOQRI),
		})
		chart.Series[0].X = append(chart.Series[0].X, float64(i+1))
		chart.Series[0].Y = append(chart.Series[0].Y, hooiPt)
		chart.Series[1].X = append(chart.Series[1].X, float64(i+1))
		chart.Series[1].Y = append(chart.Series[1].Y, hoqriPt)
	}
	emitTable(w, "fig7", []string{"dataset", "rank", "HOOI", "HOQRI", "HOQRI speedup"}, rows)
	emitChart(w, chart, "fig7.svg")
	fmt.Fprintln(w, "\nexpected shape: HOOI competitive on low-order small tensors; HOQRI wins or survives where the SVD's I x R^{N-1} unfolding dominates (HOOI shows OOM there).")
	return nil
}

// Fig8 regenerates the per-phase runtime breakdown (paper Fig. 8) of both
// drivers on every dataset that runs, reusing Fig. 7's measurements.
func Fig8(w io.Writer, p Profile) error {
	fmt.Fprintf(w, "Fig. 8: performance breakdown of HOOI and HOQRI (%%, %d iterations, profile=%s)\n\n", p.TuckerIters(), p)
	outcomes, err := tuckerComparison(p)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, o := range outcomes {
		if !o.skipHOOI {
			if o.mHOOI.Status == StatusOK {
				rows = append(rows, breakdownRow(o.spec.Name, "HOOI", o.rHOOI))
			} else {
				rows = append(rows, []string{o.spec.Name, "HOOI", o.mHOOI.Format(), "-", "-", "-", "-"})
			}
		}
		if !o.skipHOQRI {
			if o.mHOQRI.Status == StatusOK {
				rows = append(rows, breakdownRow(o.spec.Name, "HOQRI", o.rHOQRI))
			} else {
				rows = append(rows, []string{o.spec.Name, "HOQRI", o.mHOQRI.Format(), "-", "-", "-", "-"})
			}
		}
	}
	emitTable(w, "fig8", []string{"dataset", "algo", "TTMc%", "SVD%", "QR+TC%", "core%", "other%"}, rows)
	fmt.Fprintln(w, "\nexpected shape: SVD dominates HOOI wherever HOQRI wins Fig. 7; S3TTMcTC adds little to TTMc.")
	return nil
}

func breakdownRow(dataset, algo string, r *tucker.Result) []string {
	total := r.Phases.Total()
	pct := func(d time.Duration) string {
		if total == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", 100*float64(d)/float64(total))
	}
	return []string{
		dataset, algo,
		pct(r.Phases.TTMc), pct(r.Phases.SVD), pct(r.Phases.QR + r.Phases.TC), pct(r.Phases.Core), pct(r.Phases.Other),
	}
}

// Fig9 regenerates the convergence comparison (paper Fig. 9): relative
// error per iteration for HOOI and HOQRI on the contact-school (HOSVD
// init) and trivago-clicks (best-of-random init) stand-ins.
func Fig9(w io.Writer, p Profile) error {
	iters := p.ConvergenceIters()
	fmt.Fprintf(w, "Fig. 9: convergence of HOOI vs HOQRI (%d iterations, profile=%s)\n\n", iters, p)
	for _, tc := range []struct {
		name     string
		useHOSVD bool
	}{
		{"contact-school", true},
		{"trivago-clicks", false},
	} {
		spec, err := lookupIn(p.Datasets(), tc.name)
		if err != nil {
			return err
		}
		x, err := spec.GenerateTensor(91)
		if err != nil {
			return err
		}
		opts := tucker.Options{Rank: spec.Rank, MaxIters: iters, Guard: memguard.FromEnv()}
		if tc.useHOSVD {
			opts.Init = tucker.InitHOSVD
		} else {
			restarts := 20
			if p == ProfileQuick {
				restarts = 5
			}
			u0, err := tucker.BestRandomInit(x, restarts,
				tucker.Options{Rank: spec.Rank, Seed: 17, Guard: memguard.FromEnv()})
			if err != nil {
				return err
			}
			opts.U0 = u0
		}
		hooi, err := tucker.HOOI(x, opts)
		if err != nil {
			return err
		}
		hoqri, err := tucker.HOQRI(x, opts)
		if err != nil {
			return err
		}
		initName := "HOSVD"
		if !tc.useHOSVD {
			initName = "best-of-random"
		}
		fmt.Fprintf(w, "%s (rank=%d, init=%s): relative error per iteration\n", spec.Name, spec.Rank, initName)
		var rows [][]string
		chart := &plot.Chart{
			Title:  fmt.Sprintf("convergence on %s (rank %d, %s init)", spec.Name, spec.Rank, initName),
			XLabel: "iteration", YLabel: "relative error",
			Series: []plot.Series{{Name: "HOOI", Slot: slotHOOI}, {Name: "HOQRI", Slot: slotHOQRI}},
		}
		for it := 0; it < iters; it++ {
			h, q := traceAt(hooi.RelError, it), traceAt(hoqri.RelError, it)
			rows = append(rows, []string{
				fmt.Sprint(it + 1), fmt.Sprintf("%.6f", h), fmt.Sprintf("%.6f", q),
			})
			chart.Series[0].X = append(chart.Series[0].X, float64(it+1))
			chart.Series[0].Y = append(chart.Series[0].Y, h)
			chart.Series[1].X = append(chart.Series[1].X, float64(it+1))
			chart.Series[1].Y = append(chart.Series[1].Y, q)
		}
		emitTable(w, "fig9-"+spec.Name, []string{"iter", "HOOI", "HOQRI"}, rows)
		emitChart(w, chart, fmt.Sprintf("fig9-%s.svg", spec.Name))
		fmt.Fprintf(w, "final: HOOI %.6f, HOQRI %.6f (expected: same level, HOOI faster/stabler)\n\n",
			hooi.FinalRelError(), hoqri.FinalRelError())
	}
	return nil
}

func traceAt(trace []float64, i int) float64 {
	if i < len(trace) {
		return trace[i]
	}
	if len(trace) == 0 {
		return math.NaN()
	}
	return trace[len(trace)-1]
}

// Table3 prints the dataset inventory at both scales.
func Table3(w io.Writer, p Profile) error {
	fmt.Fprintf(w, "Table III: datasets (profile=%s)\n\n", p)
	var rows [][]string
	for i, d := range p.Datasets() {
		x, err := d.GenerateTensor(1000 + int64(i))
		if err != nil {
			return err
		}
		kind := "synthetic"
		if !d.Synthetic {
			kind = "hypergraph stand-in"
		}
		rows = append(rows, []string{
			d.Name, kind, fmt.Sprint(d.Order), fmt.Sprint(x.Dim), fmt.Sprint(x.NNZ()),
			fmt.Sprint(d.Rank), fmt.Sprint(x.ExpandedNNZ()),
		})
	}
	emitTable(w, "table3", []string{"dataset", "kind", "order", "dim", "unnz", "rank", "expanded nnz"}, rows)
	return nil
}

// Table2 prints the complexity model for the sweep base shape, then
// validates it empirically: the measured CSS/SP runtime ratio should track
// the model's flop ratio across ranks.
func Table2(w io.Writer, p Profile) error {
	order, dim, nnz, rank := p.SweepBase()
	WriteTable2(w, order, rank, int64(dim), int64(nnz))

	fmt.Fprintf(w, "\nModel validation: measured CSS/SP runtime ratio vs model flop ratio\n")
	x, err := spsym.Random(spsym.RandomOptions{Order: order, Dim: dim, NNZ: nnz, Seed: 88})
	if err != nil {
		return err
	}
	ranks := []int{2, 4, 6}
	if p == ProfileTest {
		ranks = []int{2, 3}
	}
	var rows [][]string
	for _, r := range ranks {
		u := randomU(dim, r, 89)
		mSP := timeOp(p.Reps(), func() error {
			_, err := kernels.S3TTMcSymProp(x, u, kernels.Options{Guard: memguard.FromEnv()})
			return err
		})
		mCSS := timeOp(p.Reps(), func() error {
			_, err := kernels.S3TTMcCSS(x, u, kernels.Options{Guard: memguard.FromEnv()})
			return err
		})
		model := float64(CCSSTotal(order, r, int64(x.NNZ()))) / float64(CSPTotal(order, r, int64(x.NNZ())))
		measured := "-"
		if mSP.Status == StatusOK && mCSS.Status == StatusOK && mSP.Seconds > 0 {
			measured = fmt.Sprintf("%.1fx", mCSS.Seconds/mSP.Seconds)
		}
		rows = append(rows, []string{
			fmt.Sprint(r), fmt.Sprintf("%.1fx", model), measured, mSP.Format(), mCSS.Format(),
		})
	}
	emitTable(w, "table2-validation", []string{"rank", "model CSS/SP", "measured", "SP time", "CSS time"}, rows)
	return nil
}

func budgetString() string {
	g := memguard.FromEnv()
	if g.Budget() == 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%dMB", g.Budget()>>20)
}
