package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/symprop/symprop/internal/bench"
	"github.com/symprop/symprop/internal/css"
	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/kernels"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/obs"
	"github.com/symprop/symprop/internal/spsym"
	"github.com/symprop/symprop/internal/tucker"
)

// workers is the kernel parallelism of every solve: one per CPU of the
// 2-CPU host the benchmark was sized on.
const workers = 2

// setupReps is how often a run builds its inputs; setup_s is the median.
const setupReps = 11

// minSolves is the fewest timed solves a run makes, even past its budget.
const minSolves = 3

// workload is one decomposition workload: a generated tensor and a
// fixed-sweep solve (Tol 0) from a seeded random orthonormal start.
type workload struct {
	why    string
	algo   string // "hoqri" or "hooi"
	rank   int
	sweeps int
	build  func(seed int64) (*spsym.Tensor, error)
	// cssCheck compares one S³TTMc output against the CSS baseline.
	cssCheck bool
	// dominant is the layer expected to take the largest share of a sweep.
	dominant string
	// serveJobs adds the served-jobs phase (serve.go) to the traced run.
	serveJobs bool
}

// setup builds the inputs setupReps times, checks every build is
// byte-identical, and records setup_s and the input metrics.
func (c workload) setup(rep *report, seed int64) (*spsym.Tensor, *linalg.Matrix, error) {
	var x *spsym.Tensor
	var u0 *linalg.Matrix
	var setups, builds []float64
	var first []byte
	same := true
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		xi, err := c.build(seed)
		if err != nil {
			return nil, nil, fmt.Errorf("build input: %w", err)
		}
		tb := time.Since(t0)
		ui := linalg.RandomOrthonormal(xi.Dim, c.rank, rand.New(rand.NewSource(seed)))
		setups = append(setups, time.Since(t0).Seconds())
		builds = append(builds, tb.Seconds())
		enc, err := encodeTensor(xi)
		if err != nil {
			return nil, nil, err
		}
		if i == 0 {
			x, u0, first = xi, ui, enc
		} else if !bytes.Equal(enc, first) || linalg.MaxAbsDiff(ui, u0) != 0 {
			same = false
		}
	}
	rep.verify("input-deterministic", same, "%d builds of seed %d byte-identical", setupReps, seed)
	rep.set("setup_s", median(setups))
	rep.set("input.build_s", median(builds))
	rep.set("input.unnz", float64(x.NNZ()))
	rep.set("input.alldistinct_frac", allDistinctFrac(x))
	rep.note("input order %d dim %d unnz %d rank %d sweeps %d algo %s", x.Order, x.Dim, x.NNZ(), c.rank, c.sweeps, c.algo)
	return x, u0, nil
}

func encodeTensor(x *spsym.Tensor) ([]byte, error) {
	var b bytes.Buffer
	if err := x.WriteBinary(&b); err != nil {
		return nil, fmt.Errorf("encode tensor: %w", err)
	}
	return b.Bytes(), nil
}

// allDistinctFrac is the share of non-zeros whose indices are all distinct,
// the signature the fused evaluators take.
func allDistinctFrac(x *spsym.Tensor) float64 {
	n := 0
	for k := 0; k < x.NNZ(); k++ {
		idx := x.IndexAt(k)
		ok := true
		for i := 1; i < len(idx); i++ {
			if idx[i] == idx[i-1] {
				ok = false
				break
			}
		}
		if ok {
			n++
		}
	}
	return float64(n) / float64(max(x.NNZ(), 1))
}

// solve runs the library's driver once.
func (c workload) solve(x *spsym.Tensor, u0 *linalg.Matrix) (*tucker.Result, error) {
	opts := tucker.Options{Rank: c.rank, MaxIters: c.sweeps, Tol: 0, U0: u0, Workers: workers}
	if c.algo == "hooi" {
		return tucker.HOOI(x, opts)
	}
	return tucker.HOQRI(x, opts)
}

// solveChecks accumulates the per-solve output checks of a run.
type solveChecks struct {
	worstOrth  float64
	relErr     float64
	relErrSet  bool
	relErrSame bool
	solves     int
}

// add checks one solve: U orthonormal and rel_error bit-identical to the
// run's first solve. It returns whether the solve passed.
func (s *solveChecks) add(res *tucker.Result) bool {
	orth := linalg.OrthonormalityError(res.U)
	s.worstOrth = math.Max(s.worstOrth, orth)
	re := res.FinalRelError()
	if !s.relErrSet {
		s.relErr, s.relErrSet, s.relErrSame = re, true, true
	}
	same := math.Float64bits(re) == math.Float64bits(s.relErr)
	s.relErrSame = s.relErrSame && same
	s.solves++
	return orth < 1e-10 && same
}

func (s *solveChecks) report(rep *report) {
	rep.verify("orthonormal-U", s.worstOrth < 1e-10, "worst ||UᵀU−I|| = %.3g over %d solves (limit 1e-10)", s.worstOrth, s.solves)
	rep.verify("rel-error-repeatable", s.relErrSame, "rel_error %.17g identical across %d solves", s.relErr, s.solves)
}

// more reports whether another solve fits the budget, judging by the last
// one, or the run still has fewer than minSolves.
func more(done int, start time.Time, last time.Duration, budget time.Duration) bool {
	return done < minSolves || time.Since(start)+last <= budget
}

// warmUp runs one single-sweep solve so the heap and the CPU caches are
// warm before anything is timed; users solving repeatedly pay that once.
func (c workload) warmUp(x *spsym.Tensor, u0 *linalg.Matrix) error {
	w := c
	w.sweeps = 1
	_, err := w.solve(x, u0)
	return err
}

func (c workload) timed(rep *report, seed int64, budget time.Duration) error {
	x, u0, err := c.setup(rep, seed)
	if err != nil {
		return err
	}
	if err := c.warmUp(x, u0); err != nil {
		return fmt.Errorf("warm-up solve: %w", err)
	}
	var walls []float64
	var chk solveChecks
	start := time.Now()
	for last := time.Duration(0); more(len(walls), start, last, budget); {
		t0 := time.Now()
		res, err := c.solve(x, u0)
		last = time.Since(t0)
		if err != nil {
			rep.op(false)
			rep.note("solve %d failed: %v", len(walls), err)
			break
		}
		rep.op(chk.add(res))
		walls = append(walls, last.Seconds())
	}
	if len(walls) == 0 {
		return fmt.Errorf("no solve completed")
	}
	chk.report(rep)
	if c.cssCheck {
		c.checkCSS(rep, x, u0)
	}
	setEndToEnd(rep, walls, chk.relErr)
	rep.note("solve_s: median of %d solves; job_p50_ms/job_p95_ms over the same %d solves (one solve is one job); walls %.3f s",
		len(walls), len(walls), walls)
	return nil
}

// setEndToEnd records the end-to-end metrics from the walls (s) of untraced
// solves; one solve is one job of a library user.
func setEndToEnd(rep *report, walls []float64, relErr float64) {
	rep.set("solve_s", median(walls))
	rep.set("job_p50_ms", quantile(walls, 0.5)*1e3)
	rep.set("job_p95_ms", quantile(walls, 0.95)*1e3)
	rep.set("rel_error", relErr)
	rep.set("peak_rss_mb", peakRSSMiB())
}

// checkCSS compares one SymProp S³TTMc output, expanded to the full
// unfolding, against the CSS baseline kernel.
func (c workload) checkCSS(rep *report, x *spsym.Tensor, u *linalg.Matrix) {
	opts := kernels.Options{Workers: workers}
	yp, err := kernels.S3TTMcSymProp(x, u, opts)
	if err != nil {
		rep.verify("s3ttmc-matches-css", false, "SymProp kernel: %v", err)
		return
	}
	ycss, err := kernels.S3TTMcCSS(x, u, opts)
	if err != nil {
		rep.verify("s3ttmc-matches-css", false, "CSS kernel: %v", err)
		return
	}
	full := kernels.ExpandCompactColumns(yp, x.Order, c.rank)
	var scale float64
	for _, v := range ycss.Data {
		scale = math.Max(scale, math.Abs(v))
	}
	diff := linalg.MaxAbsDiff(full, ycss) / math.Max(scale, 1e-300)
	rep.verify("s3ttmc-matches-css", diff <= 1e-10, "max |E·Y_p − Y_css| / max|Y_css| = %.3g (limit 1e-10)", diff)
}

// spanInfo maps a traced library call to its per-layer metric and layer.
var spanInfo = map[string]struct{ metric, layer string }{
	"kernels.S3TTMcSymProp":        {"kernels.s3ttmc_ms", "kernels"},
	"linalg.MulTN":                 {"linalg.multn_ms", "linalg"},
	"linalg.MulNTWeighted":         {"linalg.mulntw_ms", "linalg"},
	"linalg.Orthonormalize":        {"linalg.orth_ms", "linalg"},
	"kernels.ExpandCompactColumns": {"linalg.expand_ms", "linalg"},
	"linalg.MulNT":                 {"linalg.gram_ms", "linalg"},
	"linalg.TopEigenvectors":       {"linalg.eig_ms", "linalg"},
}

// replay runs one solve step by step through the public functions the
// driver calls, with spans around each call. kopts carries the caches and
// pool held across sweeps. It returns the per-sweep objectives and the
// final factor.
func (c workload) replay(x *spsym.Tensor, u0 *linalg.Matrix, kopts kernels.Options, tr *tracer, trace int) ([]float64, *linalg.Matrix, error) {
	r := c.rank
	p := kernels.PermCounts(x.Order-1, r)
	normX2 := x.NormSquared()
	u := u0.Clone()
	var objs []float64
	solve := tr.begin("tucker.solve", trace, 0)
	defer tr.end(solve)
	call := func(parent int, name string, f func()) {
		id := tr.begin(name, trace, parent)
		f()
		tr.end(id)
	}
	ttmc := func(parent int) (yp *linalg.Matrix, err error) {
		call(parent, "kernels.S3TTMcSymProp", func() { yp, err = kernels.S3TTMcSymProp(x, u, kopts) })
		return yp, err
	}
	for it := 0; it < c.sweeps; it++ {
		sweep := tr.begin("tucker.sweep", trace, solve)
		yp, err := ttmc(sweep)
		if err != nil {
			return nil, nil, err
		}
		var cp *linalg.Matrix
		if c.algo == "hooi" {
			var yFull, g *linalg.Matrix
			call(sweep, "kernels.ExpandCompactColumns", func() { yFull = kernels.ExpandCompactColumns(yp, x.Order, r) })
			if yFull.Rows > yFull.Cols {
				return nil, nil, fmt.Errorf("replay covers the I×I Gram branch only; unfolding is %dx%d", yFull.Rows, yFull.Cols)
			}
			call(sweep, "linalg.MulNT", func() { g = linalg.MulNT(yFull, yFull) })
			call(sweep, "linalg.TopEigenvectors", func() { u, err = linalg.TopEigenvectors(g, r) })
			if err != nil {
				return nil, nil, err
			}
			call(sweep, "linalg.MulTN", func() { cp = linalg.MulTN(u, yp) })
			objs = append(objs, normX2-weightedNorm2(cp, p))
		} else {
			call(sweep, "linalg.MulTN", func() { cp = linalg.MulTN(u, yp) })
			objs = append(objs, normX2-weightedNorm2(cp, p))
			var a *linalg.Matrix
			call(sweep, "linalg.MulNTWeighted", func() { a = linalg.MulNTWeighted(yp, cp, p) })
			call(sweep, "linalg.Orthonormalize", func() { u = linalg.Orthonormalize(a) })
		}
		tr.end(sweep)
	}
	if c.algo == "hoqri" {
		// HOQRI updates U after the last recorded core, so the driver
		// rebuilds the core for the final factor.
		fc := tr.begin("tucker.final_core", trace, solve)
		yp, err := ttmc(fc)
		if err != nil {
			return nil, nil, err
		}
		call(fc, "linalg.MulTN", func() { linalg.MulTN(u, yp) })
		tr.end(fc)
	}
	return objs, u, nil
}

// weightedNorm2 is ||C||² from the compact core, summed in the driver's
// order so the replayed objective is bit-comparable.
func weightedNorm2(m *linalg.Matrix, w []float64) float64 {
	var s float64
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			s += w[j] * v * v
		}
	}
	return s
}

// freshKernelOptions returns the per-solve caches and pool a driver run
// creates, and the pool's Close.
func freshKernelOptions() (kernels.Options, func()) {
	pool := exec.NewPool(workers)
	return kernels.Options{Workers: workers, PlanCache: &css.Cache{}, Pool: &kernels.WorkspacePool{},
		Schedules: &kernels.ScheduleCache{}, Exec: pool}, pool.Close
}

// driverSample is what one untraced driver solve contributes to the
// per-layer metrics.
type driverSample struct {
	wall   time.Duration
	res    *tucker.Result
	owner  obs.PlanMetrics
	reduce obs.PlanMetrics
}

func planByName(pms []obs.PlanMetrics, name string) obs.PlanMetrics {
	for _, pm := range pms {
		if pm.Name == name {
			return pm
		}
	}
	return obs.PlanMetrics{}
}

func (c workload) traced(rep *report, seed int64, budget time.Duration) error {
	x, u0, err := c.setup(rep, seed)
	if err != nil {
		return err
	}
	if err := c.warmUp(x, u0); err != nil {
		return fmt.Errorf("warm-up solve: %w", err)
	}
	tr := newTracer()
	counters := obs.NewCounters()
	var drivers []driverSample
	var replayWalls, overheads []float64
	var chk solveChecks
	worstObj := 0.0
	var kopts kernels.Options
	closePool := func() {}
	defer func() { closePool() }()
	driver := func() (time.Duration, error) {
		t0 := time.Now()
		res, err := c.solve(x, u0)
		dw := time.Since(t0)
		if err != nil {
			return dw, fmt.Errorf("driver solve: %w", err)
		}
		rep.op(chk.add(res))
		drivers = append(drivers, driverSample{wall: dw, res: res,
			owner:  planByName(res.PlanMetrics, "s3ttmc.owner"),
			reduce: planByName(res.PlanMetrics, "schedule.reduce")})
		return dw, nil
	}
	replay := func() (time.Duration, error) {
		closePool()
		kopts, closePool = freshKernelOptions()
		obs.SetGlobalCounters(counters)
		t0 := time.Now()
		objs, u, err := c.replay(x, u0, kopts, tr, len(replayWalls)+1)
		rw := time.Since(t0)
		obs.SetGlobalCounters(nil)
		if err != nil {
			return rw, fmt.Errorf("traced replay: %w", err)
		}
		ref := drivers[len(drivers)-1].res
		ok := len(objs) == len(ref.Trace) && linalg.OrthonormalityError(u) < 1e-10
		for i := 0; ok && i < len(objs); i++ {
			want := ref.Trace[i].Objective
			d := math.Abs(objs[i]-want) / math.Max(math.Abs(want), 1e-300)
			worstObj = math.Max(worstObj, d)
			ok = d <= 1e-12
		}
		rep.op(ok)
		replayWalls = append(replayWalls, ms(rw.Nanoseconds()))
		return rw, nil
	}
	if _, err := driver(); err != nil {
		return err
	}
	if c.serveJobs {
		budget -= serveWindow
	}
	// Pairs of one traced replay and one untraced solve, alternating which
	// runs first so a drifting host speed cancels out of the overhead.
	start := time.Now()
	for last := time.Duration(0); len(replayWalls) == 0 || time.Since(start)+last <= budget; {
		var rw, dw time.Duration
		var err error
		if len(replayWalls)%2 == 0 {
			if rw, err = replay(); err == nil {
				dw, err = driver()
			}
		} else if dw, err = driver(); err == nil {
			rw, err = replay()
		}
		if err != nil {
			return err
		}
		overheads = append(overheads, ms((rw - dw).Nanoseconds()))
		last = rw + dw
	}
	chk.report(rep)
	rep.verify("replay-objective-matches", worstObj <= 1e-12,
		"worst per-sweep |f_replay − f_driver|/|f_driver| = %.3g over %d replays (limit 1e-12)", worstObj, len(replayWalls))
	if c.cssCheck {
		c.checkCSS(rep, x, u0)
	}

	// Kernel scaling probe: one extra call at one worker on the warm caches.
	k1 := kopts
	k1.Workers = 1
	t0 := time.Now()
	if _, err := kernels.S3TTMcSymProp(x, u0, k1); err != nil {
		return fmt.Errorf("one-worker probe: %w", err)
	}
	oneWorker := ms(time.Since(t0).Nanoseconds())

	c.layerMetrics(rep, x, tr, drivers, replayWalls, overheads, counters, oneWorker)
	if c.serveJobs {
		if err := servedJobs(rep, seed, tr, len(replayWalls)); err != nil {
			return fmt.Errorf("served jobs: %w", err)
		}
	}
	// The end-to-end figures of a traced run come from its untraced driver
	// solves; they are printed, not part of the traced result.
	var walls []float64
	for _, d := range drivers {
		walls = append(walls, d.wall.Seconds())
	}
	setEndToEnd(rep, walls, chk.relErr)
	rep.Spans = tr.spans
	return nil
}

// layerMetrics derives every per-layer metric of a compute workload from
// the driver samples and the replay spans, and prints the reconciliation.
func (c workload) layerMetrics(rep *report, x *spsym.Tensor, tr *tracer, drivers []driverSample,
	replayWalls, overheads []float64, counters *obs.Counters, oneWorkerMs float64) {
	replays := float64(len(replayWalls))
	self := tr.selfTimes()
	perCall := map[string][]float64{}
	for i, s := range tr.spans {
		perCall[s.Name] = append(perCall[s.Name], ms(self[i]))
	}
	for name, info := range spanInfo {
		rep.set(info.metric, median(perCall[name]))
	}
	kms := median(perCall["kernels.S3TTMcSymProp"])
	gflop := float64(bench.CSPTotal(x.Order, c.rank, int64(x.NNZ()))) / 1e9
	rep.set("kernels.calls", float64(len(perCall["kernels.S3TTMcSymProp"]))/replays)
	rep.set("kernels.model_gflop", gflop)
	rep.set("kernels.gflops", gflop/(kms/1e3))
	rep.set("kernels.speedup_2w", oneWorkerMs/kms)
	var misses int64
	offGrid := false
	for _, name := range counters.Names() {
		if strings.HasPrefix(name, "fusion.miss") {
			misses += counters.Value(name)
			offGrid = offGrid || strings.Contains(name, "reason=off-grid")
		}
	}
	rep.set("kernels.fusion_miss", float64(misses)/replays)
	if offGrid {
		rep.set("kernels.fused_frac", 0)
	} else {
		rep.set("kernels.fused_frac", rep.Metrics["input.alldistinct_frac"])
	}

	// GEMM rate over every traced dense product.
	i, rk := int64(x.Dim), int64(c.rank)
	s := dense.Count(x.Order-1, c.rank)
	full := dense.Pow64(rk, x.Order-1)
	flops := map[string]int64{
		"linalg.MulTN":         2 * i * rk * s,
		"linalg.MulNTWeighted": 2 * i * rk * s,
		"linalg.MulNT":         2 * i * i * full,
	}
	var gf, gms float64
	for name, f := range flops {
		for _, t := range perCall[name] {
			gf += float64(f) / 1e9
			gms += t
		}
	}
	rep.set("linalg.gemm_gflops", gf/math.Max(gms/1e3, 1e-12))

	var sweeps, owner, imb, reduce, unattr, walls []float64
	var ph [6][]float64
	for _, d := range drivers {
		for _, ev := range d.res.Trace {
			sweeps = append(sweeps, ms(ev.WallNs))
		}
		owner = append(owner, ms(d.owner.BusyNs))
		imb = append(imb, d.owner.Imbalance)
		reduce = append(reduce, ms(d.reduce.BusyNs))
		p := d.res.Phases
		for k, v := range []time.Duration{p.TTMc, p.TC, p.SVD, p.QR, p.Core, p.Other} {
			ph[k] = append(ph[k], ms(v.Nanoseconds()))
		}
		unattr = append(unattr, ms((d.wall - p.Total()).Nanoseconds()))
		walls = append(walls, ms(d.wall.Nanoseconds()))
	}
	rep.set("exec.s3ttmc_owner.busy_ms", median(owner))
	rep.set("exec.s3ttmc_owner.imbalance", median(imb))
	rep.set("exec.schedule_reduce.busy_ms", median(reduce))
	rep.set("tucker.sweep_ms", median(sweeps))
	rep.set("tucker.init_ms", median(ph[5]))
	rep.set("tucker.iters", float64(drivers[0].res.Iters))
	for k, name := range []string{"ttmc", "tc", "svd", "qr", "core", "other"} {
		rep.set("tucker.phase."+name+"_ms", median(ph[k]))
	}
	rep.set("tucker.unattributed_ms", median(unattr))
	rep.set("tucker.final_core_ms", median(durations(tr, "tucker.final_core")))

	sw := tr.reconcile("tucker.sweep")
	rep.set("trace.wall_ms", median(sw.wall))
	rep.set("trace.layers_ms", median(sw.layers))
	rep.set("trace.unattributed_ms", median(sw.unattributed))
	rep.set("trace.overhead_ms", median(overheads))
	rep.note("solve: %d untraced driver solves (median %.1f ms), %d traced replays (median %.1f ms)",
		len(drivers), median(walls), len(replayWalls), median(replayWalls))
	c.reconciliation(rep, tr, self, sw)
}

// durations returns the wall time of every span with the given name.
func durations(tr *tracer, name string) []float64 {
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// reconciliation prints each layer's share of the sweep and of the solve,
// the unattributed residuals, and whether the expected layer dominates.
func (c workload) reconciliation(rep *report, tr *tracer, self []int64, sw rollup) {
	sweepLayer := map[string]float64{}
	for name, v := range sw.perRoot {
		sweepLayer[spanInfo[name].layer] += sum(v)
	}
	sweepWall := sum(sw.wall)
	solveLayer := map[string]float64{}
	var solveWall, solveSelf float64
	for i, s := range tr.spans {
		switch {
		case s.Name == "tucker.solve":
			solveWall += ms(s.dur())
			solveSelf += ms(self[i])
		case s.Name == "tucker.sweep" || s.Name == "tucker.final_core":
			solveLayer["tucker (own code)"] += ms(self[i])
		default:
			solveLayer[spanInfo[s.Name].layer] += ms(self[i])
		}
	}
	sweepLayer["unattributed"] = sum(sw.unattributed)
	solveLayer["unattributed"] = solveSelf
	rep.note("reconciliation (%s): share of sweep wall %.1f ms (median), share of solve wall", rep.Workload, median(sw.wall))
	names := make([]string, 0, len(solveLayer))
	for n := range solveLayer {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep.note("  layer %-18s sweep %6.1f%%  solve %6.1f%%", n, 100*sweepLayer[n]/sweepWall, 100*solveLayer[n]/solveWall)
	}
	rep.note("  Σlayers + unattributed = sweep wall: %.3f + %.3f = %.3f ms (summed over all sweeps)",
		sum(sw.layers), sum(sw.unattributed), sweepWall)
	rep.note("  tracing overhead (traced replay − untraced solve, median over adjacent pairs): %.1f ms", rep.Metrics["trace.overhead_ms"])
	dominant, best := "", -1.0
	for n, v := range sweepLayer {
		if n != "unattributed" && v > best {
			dominant, best = n, v
		}
	}
	share := sweepLayer[c.dominant] / sweepWall
	rep.set("trace.dominant_share", share)
	if dominant == c.dominant {
		rep.set("trace.dominant_ok", 1)
		rep.note("  dominant layer: %s at %.1f%% of the sweep, as expected", dominant, 100*share)
	} else {
		rep.set("trace.dominant_ok", 0)
		rep.note("  dominant layer: %s, which differs from the expected %s (%.1f%% of the sweep)", dominant, c.dominant, 100*share)
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
