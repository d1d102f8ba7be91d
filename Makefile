# SymProp build and verification targets.

GO ?= go

.PHONY: all build test test-race vet lint fuzz-smoke fault-matrix resume-smoke obs-smoke serve-smoke shard-smoke load-smoke bench bench-json bench-guard verify examples reproduce generate clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

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
	$(GO) test -fuzz=FuzzReadEdgeList -fuzztime=$(FUZZTIME) -run=^$$ ./internal/hypergraph/
	$(GO) test -fuzz=FuzzReadFrom -fuzztime=$(FUZZTIME) -run=^$$ ./internal/spsym/
	$(GO) test -fuzz=FuzzReadBinary -fuzztime=$(FUZZTIME) -run=^$$ ./internal/spsym/
	$(GO) test -fuzz=FuzzShardEquivalence -fuzztime=$(FUZZTIME) -run=^$$ ./internal/shard/

# The resilience suite under the race detector: fault-injected cancels,
# worker panics, guard rejections, NaN poisoning, checkpoint/resume, and
# the goroutine-leak checks (see DESIGN.md §7). internal/jobs runs in
# full: the job server's admission (jobs.admit), run (jobs.run), retry,
# drain, and rescan paths are all fault-driven tests.
fault-matrix:
	$(GO) test -race -run 'Fault|Cancel|Resilien|Leak|Checkpoint|Resume|Panic|Budget|NaN|Breakdown|Guard' \
		./internal/kernels/ ./internal/tucker/ ./internal/memguard/ ./cmd/symprop/
	$(GO) test -race ./internal/exec/ ./internal/faultinject/ ./internal/checkpoint/ ./internal/jobs/ ./internal/shard/

# End-to-end SIGINT → checkpoint → resume smoke test through the real CLI
# signal path (exit status 3, bit-identical resumed trace).
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

# End-to-end sharding smoke test: -shards 4 through the real CLI must
# write byte-identical factors to the single-engine run, the sharded
# -metrics artifact must pass obscheck (per-shard s3ttmc.shard[i] plans),
# and the shard package's determinism matrix runs under -race.
shard-smoke:
	./scripts/shard_smoke.sh

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
