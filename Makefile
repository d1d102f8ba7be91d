# SymProp build and verification targets.

GO ?= go

.PHONY: all build test test-race vet fmt-check fma-check lint fuzz-smoke fault-matrix resume-smoke obs-smoke serve-smoke load-smoke bench bench-json bench-guard verify examples reproduce generate clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails, listing the files, when gofmt would rewrite any
# tracked Go file.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# FMA gate: cross-builds cmd/symprop for arm64 and fails if MulNT's and
# MulNTWeighted's dot kernels contain a fused multiply-add, or if a kernel
# symbol is missing (see scripts/fma_check.sh).
fma-check:
	./scripts/fma_check.sh

# symlint: the repo's own go/analysis suite (see docs/LINTING.md;
# `go run ./tools/symlint -list` prints the analyzer roster). Enforces
# the iterate-engine, exec-plan race/heartbeat, determinism, hot-path
# allocation, generated-file, and panic-policy invariants across every
# package, the tools, and the commands.
lint:
	$(GO) run ./tools/symlint ./... ./tools/... ./cmd/...

test:
	$(GO) test ./...

# Race-detector pass over the whole module.
test-race:
	$(GO) test -race ./...

# Run every fuzz target briefly — a smoke pass, not a campaign. Each
# invocation fuzzes one target (go test allows only one -fuzz match).
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -fuzz=FuzzKernelEquivalence -fuzztime=$(FUZZTIME) -run=^$$ ./internal/kernels/
	$(GO) test -fuzz=FuzzBorrowedPoolEquivalence -fuzztime=$(FUZZTIME) -run=^$$ ./internal/kernels/
	$(GO) test -fuzz=FuzzReadEdgeList -fuzztime=$(FUZZTIME) -run=^$$ ./internal/hypergraph/
	$(GO) test -fuzz=FuzzReadFrom -fuzztime=$(FUZZTIME) -run=^$$ ./internal/spsym/
	$(GO) test -fuzz=FuzzReadBinary -fuzztime=$(FUZZTIME) -run=^$$ ./internal/spsym/

# The resilience suite under the race detector: fault-injected cancels,
# worker panics, guard rejections, NaN poisoning, checkpoint/resume, and
# the goroutine-leak checks (see DESIGN.md §7). internal/jobs runs in
# full: the job server's admission (jobs.admit), run (jobs.run), retry,
# drain, and rescan paths are all fault-driven tests.
fault-matrix:
	$(GO) test -race -run 'Fault|Cancel|Resilien|Leak|Checkpoint|Resume|Panic|Budget|NaN|Breakdown|Guard' \
		./internal/kernels/ ./internal/cpd/ ./internal/tucker/ ./internal/memguard/ ./cmd/symprop/
	$(GO) test -race ./internal/exec/ ./internal/faultinject/ ./internal/checkpoint/ ./internal/jobs/

# End-to-end SIGINT → checkpoint → resume smoke test through the real CLI
# signal path, for hooi and hoqri (exit status 3, bit-identical resumed
# trace and factor file).
resume-smoke:
	./scripts/resume_smoke.sh

# End-to-end observability smoke test: tiny decomposition with -metrics and
# -trace, artifacts validated against the schema by tools/obscheck.
obs-smoke:
	./scripts/obs_smoke.sh

# End-to-end job-server smoke test through real processes and signals:
# SIGKILL mid-job → restart → bit-identical checkpoint resume, then
# SIGTERM → graceful drain (exit 0) → the drained job survives a third
# server generation (see docs/SERVING.md).
serve-smoke:
	./scripts/serve_smoke.sh

# End-to-end load-generation smoke test: ~5s of open-loop traffic from
# symprop-load against a real symprop-serve, asserting non-zero
# completions, a well-formed BENCH_*.json latency section and /metrics
# document (obscheck), benchguard compatibility with pre-latency
# snapshots, and a rendered percentile-over-time figure (docs/LOADGEN.md).
load-smoke:
	./scripts/load_smoke.sh

# testing.B benchmarks (one family per paper table/figure).
bench:
	$(GO) test -bench=. -benchmem ./...

# Snapshot the scheduling + GEMM ablation benchmarks into BENCH_<date>.json
# (benchstat-compatible raw text inside; see tools/benchjson). Checked-in
# snapshots pin the perf trajectory PR over PR.
bench-json:
	$(GO) run ./tools/benchjson -benchtime=20x

# Compare the two newest committed snapshots and fail on an S3TTMc ns/op
# regression beyond 10% (see tools/benchguard).
bench-guard:
	$(GO) run ./tools/benchguard

# Cross-implementation equivalence gate.
verify:
	$(GO) run ./cmd/symprop-bench verify

# Regenerate every table and figure at laptop scale.
reproduce:
	$(GO) run ./cmd/symprop-bench -profile quick all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/communities
	$(GO) run ./examples/highorder
	$(GO) run ./examples/convergence
	$(GO) run ./examples/moments

# Regenerate the unrolled iteration code and the fused S³TTMc kernels (see
# docs/CODEGEN.md).
generate:
	$(GO) run ./tools/geniterate > internal/dense/iterate_gen.go
	gofmt -w internal/dense/iterate_gen.go
	$(GO) run ./tools/genkernels > internal/kernels/fused_gen.go
	gofmt -w internal/kernels/fused_gen.go

clean:
	$(GO) clean ./...
