package main

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/symprop/symprop/internal/checkpoint"
	"github.com/symprop/symprop/internal/jobs"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/loadgen"
	"github.com/symprop/symprop/internal/spsym"
	"github.com/symprop/symprop/internal/tucker"
)

// The served-jobs phase drives a short open-loop burst of small jobs
// through jobs.Manager's public API in-process, to measure the serving
// layers: admission, queueing, the spool and its checkpoints, and the
// shard engines. Its latencies are per-layer figures only: every job
// fsyncs its spool files several times, so on a shared disk they follow
// the disk more than the program (README.md, "Spool").

// jobKind is one entry of the traffic mix: a loadgen shape (tensor
// geometry, rank, sweeps, shards, weight) plus the spec fields the shape
// does not carry.
type jobKind struct {
	shape     loadgen.Shape
	algo      string
	ckptEvery int
}

// serveKinds are small jobs of a few milliseconds of compute each, so
// admission, queueing, spool and checkpoint writes and shard encode/merge
// are a large share of a job's latency.
var serveKinds = []jobKind{
	{shape: loadgen.Shape{Name: "hoqri", Order: 4, Dim: 40, NNZ: 600, Rank: 4, MaxIters: 8, Weight: 4}, algo: "hoqri"},
	{shape: loadgen.Shape{Name: "hooi", Order: 3, Dim: 60, NNZ: 1000, Rank: 4, MaxIters: 8, Weight: 2}, algo: "hooi"},
	{shape: loadgen.Shape{Name: "checkpointed", Order: 4, Dim: 40, NNZ: 600, Rank: 4, MaxIters: 8, Weight: 2}, algo: "hoqri", ckptEvery: 2},
	{shape: loadgen.Shape{Name: "sharded", Order: 4, Dim: 40, NNZ: 600, Rank: 4, MaxIters: 8, Shards: 2, Weight: 2}, algo: "hoqri"},
}

const (
	// serveRate is the open-loop Poisson arrival rate in jobs per second.
	serveRate = 40.0
	// serveWindow is how long arrivals are scheduled for.
	serveWindow = 5 * time.Second
	// serveTimeout bounds the wait for outstanding jobs after the schedule.
	serveTimeout = 60 * time.Second
)

func serveMix() *loadgen.Mix {
	m := &loadgen.Mix{}
	for _, k := range serveKinds {
		m.Shapes = append(m.Shapes, k.shape)
	}
	return m
}

// serveSchedule derives the arrivals and per-kind tensors from the seed.
func serveSchedule(seed int64, window time.Duration) ([]loadgen.Arrival, []string, error) {
	mix := serveMix()
	arrivals, err := mix.Schedule(serveRate, window, seed)
	if err != nil {
		return nil, nil, err
	}
	tensors, err := mix.Tensors(seed)
	if err != nil {
		return nil, nil, err
	}
	return arrivals, tensors, nil
}

// spoolRoot is the directory holding the job spool, inside the checkout
// the benchmark runs in.
func spoolRoot() string {
	dir := filepath.Join(".bench_build", "perfbench", "spool")
	_ = os.MkdirAll(dir, 0o755) // a failure surfaces when jobs.Open creates its spool
	return dir
}

// clearSpools deletes every spool and flushes the deletion to disk: on a
// filesystem mounted with online discard, freed blocks are trimmed at the
// next journal commit, which would otherwise slow the next run's fsyncs.
func clearSpools() {
	root := spoolRoot()
	if ents, err := os.ReadDir(root); err == nil {
		for _, e := range ents {
			os.RemoveAll(filepath.Join(root, e.Name()))
		}
	}
	syscall.Sync()
}

// serveInputs is one burst: its schedule, tensors and server.
type serveInputs struct {
	arrivals []loadgen.Arrival
	tensors  []string
	mgr      *jobs.Manager
	spool    string
}

// jobRec is one scheduled job as the client saw it. Each waiter goroutine
// writes only its own record; the dispatcher reads them after the join.
type jobRec struct {
	kind             int
	id               string
	due              time.Time
	submit0, submit1 time.Time
	end              time.Time
	submitErr        error
	state            jobs.State
	errMsg           string
	status           jobs.Status
}

// drive submits every arrival on schedule (open loop: a late or slow
// submission never delays the clock the next arrival is due by) and waits
// for every admitted job to reach a terminal state.
func drive(in *serveInputs) ([]*jobRec, error) {
	recs := make([]*jobRec, len(in.arrivals))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range in.arrivals {
		k := serveKinds[a.Shape]
		r := &jobRec{kind: a.Shape, due: start.Add(a.At)}
		recs[i] = r
		if d := time.Until(r.due); d > 0 {
			time.Sleep(d)
		}
		spec := jobs.Spec{Tensor: in.tensors[a.Shape], Rank: k.shape.Rank, Algo: k.algo,
			MaxIters: k.shape.MaxIters, Seed: a.Seed, Shards: k.shape.Shards, CheckpointEvery: k.ckptEvery}
		r.submit0 = time.Now()
		r.id, r.submitErr = in.mgr.Submit(spec)
		r.submit1 = time.Now()
		if r.submitErr != nil {
			continue
		}
		ch, detach, err := in.mgr.Subscribe(r.id)
		if err != nil {
			return nil, fmt.Errorf("subscribe %s: %w", r.id, err)
		}
		// One waiter per admitted job; admission bounds how many are live
		// (MaxQueued plus the runners).
		wg.Add(1)
		go func(r *jobRec, ch <-chan jobs.Event) {
			defer wg.Done()
			defer detach()
			for ev := range ch {
				if ev.Type == "state" && ev.State.Terminal() {
					r.state, r.errMsg = ev.State, ev.Error
				}
			}
			r.end = time.Now()
		}(r, ch)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(serveTimeout):
		for _, r := range recs {
			if r.submitErr == nil {
				_ = in.mgr.Cancel(r.id) // best effort: the run is already failing
			}
		}
		<-done
		return nil, fmt.Errorf("jobs still running %s after the last arrival", serveTimeout)
	}
	for _, r := range recs {
		if r.submitErr != nil {
			continue
		}
		st, err := in.mgr.Status(r.id)
		if err != nil {
			return nil, fmt.Errorf("status %s: %w", r.id, err)
		}
		r.status = st
		if r.state == "" { // the terminal event was dropped; the channel still closed
			r.state, r.errMsg = st.State, st.Error
		}
	}
	return recs, nil
}

// servedJobs runs the burst against a fresh server (2 runners x 1 job
// worker), checks every job, and records the serving layers' metrics and
// per-job spans under trace ids after traceBase.
func servedJobs(rep *report, seed int64, tr *tracer, traceBase int) (err error) {
	clearSpools()
	defer clearSpools()
	arrivals, tensors, err := serveSchedule(seed, serveWindow)
	if err != nil {
		return err
	}
	spool := filepath.Join(spoolRoot(), fmt.Sprintf("seed%d-pid%d", seed, os.Getpid()))
	mgr, err := jobs.Open(jobs.Config{SpoolDir: spool, Runners: 2, JobWorkers: 1, MemoryBudget: 1 << 30,
		MaxQueuedPerTenant: 256, MaxQueued: 256})
	if err != nil {
		return fmt.Errorf("open server: %w", err)
	}
	in := &serveInputs{arrivals: arrivals, tensors: tensors, mgr: mgr, spool: spool}
	recs, err := drive(in)
	if err == nil {
		checkJobs(rep, in, recs)
	}
	if cerr := mgr.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("close server: %w", cerr)
	}
	if err != nil {
		return err
	}
	serveSpoolMetrics(rep, spool, recs)
	for _, pm := range mgr.Metrics().Snapshot() {
		switch pm.Name {
		case "shard.fanout", "shard.merge", "shard.gram", "shard.tc":
			name := "exec." + strings.ReplaceAll(pm.Name, ".", "_") + ".busy_ms"
			rep.set(name, ms(pm.BusyNs)/float64(max(len(recs), 1)))
		}
	}
	rep.note("served jobs: %d arrivals at %.0f jobs/s over %s, 2 runners x 1 job worker, spool on %s",
		len(arrivals), serveRate, serveWindow, fsType(spool))
	jobSpans(rep, recs, tr, traceBase)
	return nil
}

// checkJobs counts every job as an operation, checks they all succeeded,
// and compares the first job of every kind against a direct library call.
func checkJobs(rep *report, in *serveInputs, recs []*jobRec) {
	var failed []string
	for _, r := range recs {
		ok := r.submitErr == nil && r.state == jobs.StateSucceeded
		rep.op(ok)
		if !ok && len(failed) < 3 {
			failed = append(failed, fmt.Sprintf("%s %v %s", r.state, r.submitErr, r.errMsg))
		}
	}
	rep.verify("jobs-all-succeeded", len(failed) == 0, "%d scheduled; first failures: %v", len(recs), failed)
	checkFactors(rep, in, recs)
}

// jobSpans builds each job's spans from the Submit call, the server's
// Status timestamps and the observed terminal event, and reconciles them
// against the job's wall time (scheduled arrival to observed end).
func jobSpans(rep *report, recs []*jobRec, tr *tracer, traceBase int) {
	var late []float64
	rejected, retries := 0, 0
	for i, r := range recs {
		late = append(late, ms(r.submit0.Sub(r.due).Nanoseconds()))
		if r.submitErr != nil {
			rejected++
			continue
		}
		retries += r.status.Retries
		started := time.UnixMilli(r.status.StartedAt)
		finished := time.UnixMilli(r.status.FinishedAt)
		if started.Before(r.submit1) {
			started = r.submit1
		}
		if finished.Before(started) {
			finished = started
		}
		id := traceBase + i + 1
		root := tr.add("job", id, 0, r.due, r.end)
		tr.add("load.late", id, root, r.due, r.submit0)
		tr.add("jobs.submit", id, root, r.submit0, r.submit1)
		tr.add("jobs.queue_wait", id, root, r.submit1, started)
		tr.add("jobs.run", id, root, started, finished)
	}
	rep.set("jobs.rejected", float64(rejected))
	rep.set("jobs.retries", float64(retries))
	rep.set("load.scheduled", float64(len(recs)))
	rep.set("load.late_ms_max", quantile(late, 1))

	j := tr.reconcile("job")
	rep.set("jobs.submit_ms", median(j.calls["jobs.submit"]))
	rep.set("jobs.queue_wait_ms", median(j.calls["jobs.queue_wait"]))
	rep.set("jobs.run_ms", median(j.calls["jobs.run"]))
	rep.set("jobs.observe_ms", median(j.unattributed))
	rep.set("jobs.latency_p50_ms", quantile(j.wall, 0.5))
	rep.set("jobs.latency_p95_ms", quantile(j.wall, 0.95))

	wall := sum(j.wall)
	rep.note("reconciliation (served jobs): share of job wall %.2f ms (median over %d jobs, scheduled arrival to observed end)",
		median(j.wall), len(j.wall))
	for _, name := range []string{"load.late", "jobs.submit", "jobs.queue_wait", "jobs.run"} {
		rep.note("  layer %-18s job %6.1f%%", name, 100*sum(j.perRoot[name])/wall)
	}
	rep.note("  unattributed (jobs.observe) %6.1f%%", 100*sum(j.unattributed)/wall)
	rep.note("  Σlayers + unattributed = job wall: %.3f + %.3f = %.3f ms (summed over all jobs)",
		sum(j.layers), sum(j.unattributed), wall)
	rep.note("  server timestamps have millisecond resolution; queue_wait starts at Submit's return")
}

// checkFactors compares the first succeeded job of every kind against a
// direct library call with the same spec, seed and worker count.
func checkFactors(rep *report, in *serveInputs, recs []*jobRec) {
	seen := map[int]bool{}
	for i, r := range recs {
		if seen[r.kind] || r.state != jobs.StateSucceeded {
			continue
		}
		seen[r.kind] = true
		k := serveKinds[r.kind]
		err := func() error {
			x, err := spsym.ReadFrom(strings.NewReader(in.tensors[r.kind]))
			if err != nil {
				return err
			}
			opts := tucker.Options{Rank: k.shape.Rank, MaxIters: k.shape.MaxIters, Seed: in.arrivals[i].Seed,
				Workers: 1, Shards: k.shape.Shards}
			var res *tucker.Result
			if k.algo == "hooi" {
				res, err = tucker.HOOI(x, opts)
			} else {
				res, err = tucker.HOQRI(x, opts)
			}
			if err != nil {
				return err
			}
			path, err := in.mgr.ResultPath(r.id)
			if err != nil {
				return err
			}
			u, err := readFactor(path)
			if err != nil {
				return err
			}
			if u.Rows != res.U.Rows || u.Cols != res.U.Cols {
				return fmt.Errorf("factor is %dx%d, direct call gives %dx%d", u.Rows, u.Cols, res.U.Rows, res.U.Cols)
			}
			for j, v := range u.Data {
				if math.Float64bits(v) != math.Float64bits(res.U.Data[j]) {
					return fmt.Errorf("entry %d differs: served %v, direct %v", j, v, res.U.Data[j])
				}
			}
			return nil
		}()
		detail := "bit-identical to a direct tucker call"
		if err != nil {
			detail = err.Error()
		}
		rep.verify("served-factor-"+k.shape.Name, err == nil, "job %s: %s", r.id, detail)
	}
}

// readFactor parses a served factor file: a "%" header line, then one row
// of space-separated shortest round-trip floats per line.
func readFactor(path string) (*linalg.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var data []float64
	rows, cols := 0, 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "%") || line == "" {
			continue
		}
		fields := strings.Fields(line)
		if rows == 0 {
			cols = len(fields)
		} else if len(fields) != cols {
			return nil, fmt.Errorf("%s: row %d has %d entries, want %d", path, rows, len(fields), cols)
		}
		for _, s := range fields {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			data = append(data, v)
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return linalg.NewMatrixFrom(rows, cols, data), nil
}

// serveSpoolMetrics measures the spool the burst left: bytes per job and
// the snapshots each job's checkpoint records having written.
func serveSpoolMetrics(rep *report, spool string, recs []*jobRec) {
	var bytes int64
	_ = filepath.WalkDir(spool, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				bytes += info.Size()
			}
		}
		return nil
	})
	var ckpts, n int
	for _, r := range recs {
		if r.submitErr != nil {
			continue
		}
		n++
		st, err := checkpoint.Load(filepath.Join(spool, r.id, "run.ckpt"))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			rep.note("checkpoint of %s unreadable: %v", r.id, err)
			continue
		}
		for _, ev := range st.Trace {
			if ev.Checkpoint != "" {
				ckpts++
			}
		}
	}
	rep.set("jobs.spool_bytes_per_job", float64(bytes)/float64(max(n, 1)))
	rep.set("jobs.checkpoints_per_job", float64(ckpts)/float64(max(n, 1)))
}
