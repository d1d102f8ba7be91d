// Command symprop-serve runs decomposition jobs as a crash-tolerant HTTP
// daemon (docs/SERVING.md), plus a small client for scripting against it.
//
// Usage:
//
//	symprop-serve serve -spool DIR [-addr :8477] [-addr-file F] [-runners N]
//	        [-job-workers W] [-mem BYTES] [-max-queued N] [-max-queued-per-tenant N]
//	        [-queue-ttl D] [-retry-after D] [-max-attempts N]
//	symprop-serve submit -server URL -rank R [-algo A] [-iters N] [-tol T]
//	        [-seed S] [-workers W] [-checkpoint-every K] [-timeout SEC]
//	        [-tenant T] [-wait] <tensor.tns>
//	symprop-serve status -server URL <job-id>
//	symprop-serve result -server URL [-out U.txt] <job-id>
//	symprop-serve cancel -server URL <job-id>
//
// The server owns the spool directory: every admitted job is persisted
// there (manifest, tensor, checkpoint, result) before it is acknowledged,
// so a SIGKILL at any instant loses at most the sweeps since the last
// checkpoint — restart the server over the same spool and it resumes.
// SIGTERM/SIGINT drain gracefully: admission stops (503), running jobs
// snapshot and park as queued, and the process exits 0.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/symprop/symprop/internal/jobs"
	"github.com/symprop/symprop/internal/memguard"
	"github.com/symprop/symprop/internal/spsym"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = runServe(os.Args[2:])
	case "submit":
		err = runSubmit(os.Args[2:])
	case "status":
		err = runStatus(os.Args[2:])
	case "result":
		err = runResult(os.Args[2:])
	case "cancel":
		err = runCancel(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "symprop-serve:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  symprop-serve serve -spool DIR [-addr :8477] [-addr-file F] [-runners N] [-job-workers W]
          [-mem BYTES] [-max-queued N] [-max-queued-per-tenant N] [-queue-ttl D]
          [-retry-after D] [-max-attempts N]
  symprop-serve submit -server URL -rank R [-algo hoqri|hooi|hooi-randomized] [-iters N]
          [-tol T] [-seed S] [-workers W] [-checkpoint-every K] [-timeout SEC]
          [-tenant T] [-wait] <tensor.tns>
  symprop-serve status -server URL <job-id>
  symprop-serve result -server URL [-out U.txt] <job-id>
  symprop-serve cancel -server URL <job-id>`)
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8477", "listen address (use :0 for an ephemeral port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
	spool := fs.String("spool", "", "job spool directory (required; survives restarts)")
	runners := fs.Int("runners", 2, "concurrently running jobs")
	jobWorkers := fs.Int("job-workers", 2, "kernel workers per job when the spec leaves workers unset")
	mem := fs.String("mem", "", "server memory budget (bytes, K/M/G suffix; empty = $SYMPROP_MEM_BUDGET, \"off\" = unlimited)")
	maxQueued := fs.Int("max-queued", 64, "global queue bound")
	maxQueuedTenant := fs.Int("max-queued-per-tenant", 8, "per-tenant queue bound")
	queueTTL := fs.Duration("queue-ttl", 10*time.Minute, "queued-job time to live (negative disables)")
	retryAfter := fs.Duration("retry-after", 5*time.Second, "Retry-After hint on 429/503 responses")
	maxAttempts := fs.Int("max-attempts", 3, "run attempts per job before it fails")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spool == "" {
		return fmt.Errorf("serve: -spool is required")
	}
	budget := int64(0) // 0 = memguard.FromEnv semantics
	switch *mem {
	case "":
	case "off":
		budget = -1
	default:
		b, err := memguard.ParseBytes(*mem)
		if err != nil {
			return err
		}
		budget = b
	}

	logger := log.New(os.Stderr, "symprop-serve: ", log.LstdFlags)
	m, err := jobs.Open(jobs.Config{
		SpoolDir:           *spool,
		Runners:            *runners,
		JobWorkers:         *jobWorkers,
		MemoryBudget:       budget,
		MaxQueued:          *maxQueued,
		MaxQueuedPerTenant: *maxQueuedTenant,
		QueueTTL:           *queueTTL,
		RetryAfter:         *retryAfter,
		Retry:              jobs.RetryPolicy{MaxAttempts: *maxAttempts},
		Logf:               logger.Printf,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		m.Close()
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			m.Close()
			return err
		}
	}
	srv := &http.Server{Handler: jobs.NewServer(m)}
	logger.Printf("listening on %s, spool %s, %d runners", ln.Addr(), *spool, *runners)

	// First signal: drain (stop admission, snapshot running jobs, join the
	// fleet), then stop serving and exit 0. stop() restores default
	// delivery so a second signal kills the process if the drain wedges.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		m.Close()
		return err
	case <-ctx.Done():
	}
	logger.Printf("signal received; draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Drain(drainCtx); err != nil {
		srv.Close()
		return err
	}
	// Keep serving status/healthz during the drain itself; shut the
	// listener down only once the fleet is parked.
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutCtx); err != nil {
		srv.Close()
	}
	<-serveErr // Serve returned http.ErrServerClosed
	logger.Printf("drained; exiting")
	return nil
}

// clientArgs is the flag prelude shared by every client subcommand.
func clientArgs(fs *flag.FlagSet, args []string, operand string) (server string, arg string, err error) {
	srv := fs.String("server", "", "server base URL (e.g. http://127.0.0.1:8477)")
	if err := fs.Parse(args); err != nil {
		return "", "", err
	}
	if *srv == "" {
		return "", "", fmt.Errorf("%s: -server is required", fs.Name())
	}
	if fs.NArg() != 1 {
		return "", "", fmt.Errorf("%s: expected exactly one %s argument", fs.Name(), operand)
	}
	return strings.TrimRight(*srv, "/"), fs.Arg(0), nil
}

// decodeError turns a non-2xx API response into a readable error.
func decodeError(resp *http.Response) error {
	var eb struct {
		Error string `json:"error"`
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, eb.Error)
	}
	return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
}

func getStatus(server, id string) (jobs.Status, error) {
	resp, err := http.Get(server + "/v1/jobs/" + id)
	if err != nil {
		return jobs.Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobs.Status{}, decodeError(resp)
	}
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return jobs.Status{}, err
	}
	return st, nil
}

func runSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	rank := fs.Int("rank", 0, "Tucker rank R (required)")
	algo := fs.String("algo", "hoqri", "driver: hoqri, hooi, or hooi-randomized")
	iters := fs.Int("iters", 50, "maximum ALS sweeps")
	tol := fs.Float64("tol", 0, "relative-objective stopping tolerance (0 = run all sweeps)")
	seed := fs.Int64("seed", 1, "random-initialization seed")
	workers := fs.Int("workers", 0, "kernel workers (0 = server default)")
	fs.Int("shards", 0, "deprecated: ignored, accepted so that old command lines still run")
	ckptEvery := fs.Int("checkpoint-every", 0, "snapshot period in sweeps (0 = server default)")
	timeout := fs.Float64("timeout", 0, "per-job wall-clock deadline in seconds (0 = none)")
	tenant := fs.String("tenant", "", "tenant for queue fairness and bounds")
	wait := fs.Bool("wait", false, "poll until the job is terminal; exit non-zero unless it succeeded")
	server, tensorPath, err := clientArgs(fs, args, "tensor file")
	if err != nil {
		return err
	}
	// Inline the tensor in the canonical text form, whatever format the
	// local file uses — the server never needs to see this filesystem.
	x, err := spsym.Load(tensorPath)
	if err != nil {
		return err
	}
	var text strings.Builder
	if err := x.Write(&text); err != nil {
		return err
	}
	spec := jobs.Spec{
		Tenant:          *tenant,
		Tensor:          text.String(),
		Rank:            *rank,
		Algo:            *algo,
		MaxIters:        *iters,
		Tol:             *tol,
		Seed:            *seed,
		Workers:         *workers,
		CheckpointEvery: *ckptEvery,
		TimeoutSec:      *timeout,
	}
	buf, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	resp, err := http.Post(server+"/v1/jobs", "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return decodeError(resp)
	}
	var accepted struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		return err
	}
	fmt.Println(accepted.ID)
	if !*wait {
		return nil
	}
	for {
		st, err := getStatus(server, accepted.ID)
		if err != nil {
			return err
		}
		if st.State.Terminal() {
			fmt.Fprintf(os.Stderr, "symprop-serve: job %s %s\n", st.ID, st.State)
			if st.State != jobs.StateSucceeded {
				return fmt.Errorf("job %s: %s (%s)", st.ID, st.State, st.Error)
			}
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func runStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	server, id, err := clientArgs(fs, args, "job-id")
	if err != nil {
		return err
	}
	st, err := getStatus(server, id)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}

func runResult(args []string) error {
	fs := flag.NewFlagSet("result", flag.ExitOnError)
	out := fs.String("out", "", "write the factor matrix here instead of stdout")
	server, id, err := clientArgs(fs, args, "job-id")
	if err != nil {
		return err
	}
	resp, err := http.Get(server + "/v1/jobs/" + id + "/result")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

func runCancel(args []string) error {
	fs := flag.NewFlagSet("cancel", flag.ExitOnError)
	server, id, err := clientArgs(fs, args, "job-id")
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodDelete, server+"/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	fmt.Printf("%s %s\n", st.ID, st.State)
	return nil
}
