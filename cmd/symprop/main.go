// Command symprop decomposes sparse symmetric tensors from the shell.
//
// Usage:
//
//	symprop info <tensor.tns>
//	symprop decompose -rank R [-algo hoqri|hooi|hooi-randomized] [-iters N] [-tol T]
//	        [-hosvd] [-seed S] [-workers W] [-out factor.txt]
//	        [-convergence conv.csv] [-metrics out.json] [-trace trace.jsonl] [-pprof :6060]
//	        [-checkpoint run.ckpt [-checkpoint-every K] [-resume]] <tensor.tns>
//	symprop ttmc -rank R [-seed S] <tensor.tns>
//	symprop cp -rank R [-iters N] [-tol T] [-seed S] [-workers W] [-out factor.txt] <tensor.tns>
//
// Tensors use the symmetric text format ("sym <order> <dim> <nnz>" header,
// then 1-based "i1 ... iN value" lines) or the binary format of
// symprop.SaveTensorBinary, told apart by its magic bytes; hypergraph edge
// lists can be converted with symprop-gen.
//
// Observability (docs/OBSERVABILITY.md): -metrics writes the run's
// aggregated per-plan engine counters as JSON, -trace streams one JSON
// line per completed sweep, and -pprof serves net/http/pprof (with
// plan/phase goroutine labels) and expvar on the given address.
//
// SIGINT/SIGTERM cancel a running decomposition cooperatively: the current
// kernel stops, a final snapshot is written when -checkpoint is set, and
// the process exits with status 3 (distinct from hard failures, status 1)
// so wrappers can rerun with -resume.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	symprop "github.com/symprop/symprop"
	"github.com/symprop/symprop/internal/dense"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/obs"
	"github.com/symprop/symprop/internal/spsym"
)

// exitInterrupted is the exit status of a run canceled by SIGINT/SIGTERM —
// an expected, resumable outcome, not a failure.
const exitInterrupted = 3

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// The first signal cancels the run cooperatively (checkpoint, then exit
	// 3); stop() restores default delivery, so a second signal kills the
	// process the ordinary way if the graceful path wedges.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch os.Args[1] {
	case "info":
		err = runInfo(os.Args[2:])
	case "decompose":
		err = runDecompose(ctx, os.Args[2:])
	case "ttmc":
		err = runTTMc(os.Args[2:])
	case "cp":
		err = runCP(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "symprop:", err)
		if errors.Is(err, symprop.ErrCanceled) {
			var ce *symprop.CanceledError
			if errors.As(err, &ce) && ce.CheckpointPath != "" {
				fmt.Fprintf(os.Stderr, "symprop: snapshot written to %s; rerun with -resume to continue\n",
					ce.CheckpointPath)
			}
			os.Exit(exitInterrupted)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  symprop info <tensor.tns>
  symprop decompose -rank R [-algo hoqri|hooi|hooi-randomized] [-iters N] [-tol T] [-hosvd] [-seed S] [-workers W]
          [-out U.txt] [-convergence conv.csv] [-metrics out.json] [-trace trace.jsonl] [-pprof :6060]
          [-checkpoint run.ckpt [-checkpoint-every K] [-resume]] <tensor.tns>
  symprop ttmc -rank R [-seed S] <tensor.tns>
  symprop cp -rank R [-iters N] [-tol T] [-seed S] [-workers W] [-out U.txt] <tensor.tns>`)
}

func loadArg(fs *flag.FlagSet) (*spsym.Tensor, error) {
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("expected exactly one tensor file argument")
	}
	return spsym.Load(fs.Arg(0))
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	x, err := loadArg(fs)
	if err != nil {
		return err
	}
	fmt.Printf("order:          %d\n", x.Order)
	fmt.Printf("dimension:      %d\n", x.Dim)
	fmt.Printf("IOU non-zeros:  %d\n", x.NNZ())
	fmt.Printf("expanded nnz:   %d\n", x.ExpandedNNZ())
	fmt.Printf("||X||_F:        %g\n", math.Sqrt(x.NormSquared()))
	fmt.Printf("max distinct:   %d index values per non-zero\n", x.MaxDistinct())
	fmt.Printf("compact Y cols: S_{N-1,R}: R=4 -> %d, R=8 -> %d, R=16 -> %d\n",
		dense.Count(x.Order-1, 4), dense.Count(x.Order-1, 8), dense.Count(x.Order-1, 16))

	// Degree distribution summary (hypergraph node incidence).
	deg := x.Degrees()
	var maxDeg, nonzeroNodes int64
	var sumDeg int64
	for _, d := range deg {
		if d > 0 {
			nonzeroNodes++
		}
		if d > maxDeg {
			maxDeg = d
		}
		sumDeg += d
	}
	if nonzeroNodes > 0 {
		fmt.Printf("degrees:        %d/%d indices touched, max %d, mean %.2f\n",
			nonzeroNodes, x.Dim, maxDeg, float64(sumDeg)/float64(nonzeroNodes))
	}

	// Multiplicity profile: how many non-zeros have k distinct index values.
	hist := make(map[int]int)
	for k := 0; k < x.NNZ(); k++ {
		tuple := x.IndexAt(k)
		d := 0
		for i, v := range tuple {
			if i == 0 || v != tuple[i-1] {
				d++
			}
		}
		hist[d]++
	}
	fmt.Printf("distinct-value profile:")
	for d := 1; d <= x.Order; d++ {
		if hist[d] > 0 {
			fmt.Printf(" %d:%d", d, hist[d])
		}
	}
	fmt.Println()
	return nil
}

func runDecompose(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("decompose", flag.ExitOnError)
	rank := fs.Int("rank", 4, "Tucker rank R")
	algo := fs.String("algo", "hoqri", "algorithm: hoqri, hooi or hooi-randomized")
	iters := fs.Int("iters", 50, "maximum iterations")
	tol := fs.Float64("tol", 1e-6, "relative objective tolerance (0 = run all iterations)")
	hosvd := fs.Bool("hosvd", false, "initialize with HOSVD instead of randomly")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	fs.Int("shards", 0, "deprecated: ignored, accepted so that old command lines still run")
	out := fs.String("out", "", "write the factor matrix U to this file")
	convergence := fs.String("convergence", "", "write the per-iteration convergence trace as CSV to this file")
	metrics := fs.String("metrics", "", "write the aggregated per-plan engine counters as JSON to this file")
	trace := fs.String("trace", "", "stream one JSON line per completed sweep to this file")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. :6060) with plan/phase goroutine labels")
	ckpt := fs.String("checkpoint", "", "snapshot the run state to this file periodically and on interrupt")
	ckptEvery := fs.Int("checkpoint-every", 10, "snapshot every K iterations (with -checkpoint)")
	resume := fs.Bool("resume", false, "resume from the -checkpoint file instead of starting fresh")
	if err := fs.Parse(args); err != nil {
		return err
	}
	x, err := loadArg(fs)
	if err != nil {
		return err
	}

	opts := symprop.Options{
		Rank: *rank, MaxIters: *iters, Tol: *tol, HOSVDInit: *hosvd, Seed: *seed,
		Workers: *workers, Ctx: ctx,
		CheckpointPath: *ckpt, CheckpointEvery: *ckptEvery, Resume: *resume,
	}
	if *pprofAddr != "" {
		m := symprop.NewMetrics()
		m.EnablePprofLabels()
		obs.PublishExpvar("symprop", m)
		opts.Metrics = m
		go func() {
			// DefaultServeMux carries /debug/pprof/* (net/http/pprof) and
			// /debug/vars (expvar, registered by obs).
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "symprop: pprof server: %v\n", err)
			}
		}()
	}
	if *trace != "" {
		sink, err := symprop.CreateTraceJSONL(*trace)
		if err != nil {
			return err
		}
		defer sink.Close()
		opts.TraceSink = sink
	}
	switch *algo {
	case "hoqri":
		opts.Algorithm = symprop.HOQRI
	case "hooi":
		opts.Algorithm = symprop.HOOI
	case "hooi-randomized":
		opts.Algorithm = symprop.HOOIRandomized
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}

	start := time.Now()
	res, err := symprop.Decompose(x, opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Printf("algorithm:       %s\n", *algo)
	fmt.Printf("iterations:      %d (converged: %v)\n", res.Iters, res.Converged)
	fmt.Printf("relative error:  %.6f\n", res.FinalRelError())
	fmt.Printf("total time:      %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("phase breakdown: TTMc %v, SVD %v, QR %v, TC %v, core %v\n",
		res.Phases.TTMc.Round(time.Millisecond), res.Phases.SVD.Round(time.Millisecond),
		res.Phases.QR.Round(time.Millisecond), res.Phases.TC.Round(time.Millisecond),
		res.Phases.Core.Round(time.Millisecond))

	if *out != "" {
		if err := writeMatrix(*out, res.U); err != nil {
			return err
		}
		fmt.Printf("factor U written to %s\n", *out)
	}
	if *convergence != "" {
		if err := writeConvergence(*convergence, res); err != nil {
			return err
		}
		fmt.Printf("convergence trace written to %s\n", *convergence)
	}
	if *metrics != "" {
		if err := writeMetrics(*metrics, res); err != nil {
			return err
		}
		fmt.Printf("per-plan metrics written to %s\n", *metrics)
	}
	if *trace != "" {
		fmt.Printf("iteration trace streamed to %s (%d events)\n", *trace, len(res.Trace))
	}
	return nil
}

// writeMetrics dumps the run's aggregated per-plan engine counters as an
// indented JSON array.
func writeMetrics(path string, res *symprop.Result) error {
	buf, err := json.MarshalIndent(res.PlanMetrics, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func writeConvergence(path string, res *symprop.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	// Round-trip form, as in the factor file: equal bytes mean equal bits.
	fmt.Fprintln(w, "iteration,objective,relative_error")
	for i := range res.Objective {
		fmt.Fprintf(w, "%d,%s,%s\n", i+1, strconv.FormatFloat(res.Objective[i], 'g', -1, 64),
			strconv.FormatFloat(res.RelError[i], 'g', -1, 64))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runTTMc(args []string) error {
	fs := flag.NewFlagSet("ttmc", flag.ExitOnError)
	rank := fs.Int("rank", 4, "chain-product rank R")
	seed := fs.Int64("seed", 1, "random factor seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	x, err := loadArg(fs)
	if err != nil {
		return err
	}
	u := linalg.RandomNormal(x.Dim, *rank, rand.New(rand.NewSource(*seed)))
	start := time.Now()
	yp, err := symprop.S3TTMc(x, u, symprop.KernelOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("S3TTMc-SP: %v for Y_p(1) of %d x %d (full unfolding would be %d x %d)\n",
		time.Since(start).Round(time.Microsecond), yp.Rows, yp.Cols,
		yp.Rows, dense.Pow64(int64(*rank), x.Order-1))
	return nil
}

func runCP(args []string) error {
	fs := flag.NewFlagSet("cp", flag.ExitOnError)
	rank := fs.Int("rank", 4, "CP rank (number of symmetric rank-1 components)")
	iters := fs.Int("iters", 100, "maximum ALS sweeps")
	tol := fs.Float64("tol", 1e-8, "fit-improvement tolerance (0 = run all sweeps)")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS); the factor's bits follow it")
	out := fs.String("out", "", "write the factor matrix U to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	x, err := loadArg(fs)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := symprop.DecomposeCP(x, symprop.CPOptions{
		Rank: *rank, MaxIters: *iters, Tol: *tol, Seed: *seed, Workers: *workers,
	})
	if err != nil {
		return err
	}
	fmt.Printf("sweeps:      %d (converged: %v)\n", res.Iters, res.Converged)
	fmt.Printf("fit:         %.6f\n", res.FinalFit())
	fmt.Printf("weights:     %.4g\n", res.Lambda)
	fmt.Printf("total time:  %v\n", time.Since(start).Round(time.Millisecond))
	if *out != "" {
		if err := writeMatrix(*out, res.U); err != nil {
			return err
		}
		fmt.Printf("factor U written to %s\n", *out)
	}
	return nil
}

// writeMatrix writes m to path in the factor-file format the job server's
// result endpoint serves (linalg.WriteFactor).
func writeMatrix(path string, m *linalg.Matrix) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := linalg.WriteFactor(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
