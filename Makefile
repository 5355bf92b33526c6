# Local entry points matching the CI pipeline (.github/workflows/ci.yml)
# job for job: a green `make check` predicts a green pipeline.

GO ?= go

.PHONY: build test race bench alloc-test chaos-test obs-test ops-smoke load-smoke repro-diff fmt vet gob-check fusion-check lint check

## build: compile every package
build:
	$(GO) build ./...

## test: the full test suite (tier-1 gate)
test:
	$(GO) test ./...

## race: race detector in short mode, with the worker count forced wide so
## every parallel path fans out even on single-core machines
race:
	FEDCLEANSE_WORKERS=4 $(GO) test -race -short ./...

## bench: one iteration of every tensor/nn benchmark (the CI smoke set;
## the element-wise routines, narrow-map tables and BatchNorm report
## ns/elem), then which kernels produced the numbers (tensor_kernel_avx2:
## 1 = AVX2 assembly under the matmuls and the element-wise passes, 0 =
## pure-Go loops; nothing is printed off amd64)
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/tensor ./internal/nn
	@$(GO) test -count=1 -run 'TestDetectAVX2MatchesKernel' -v ./internal/tensor | grep -o 'tensor_kernel_avx2=[01]' || true

## alloc-test: the allocation-regression gate — warm kernels, layer passes
## and whole train steps must not allocate, and the round phase around them
## keeps byte budgets: rounds, checkpoint writes, remote calls, tail batches
## (see internal/*/alloc_test.go; these files are excluded under -race, so
## the race job cannot cover them)
alloc-test:
	$(GO) test -run 'AllocFree|AllocBudget' -v ./internal/tensor ./internal/nn ./internal/fl ./internal/metrics ./internal/obs ./internal/transport ./internal/parallel

## obs-test: the observability gate — registry/logger/span/ops-endpoint
## unit tests (DESIGN.md §11) plus the remote-run metrics integration
## test (a faulty federation must leave non-zero round, retry and
## stage-latency metrics)
obs-test:
	$(GO) test -count=1 ./internal/obs
	$(GO) test -count=1 -run 'TestRemoteRunPopulatesMetrics' -v ./internal/transport

## ops-smoke: end-to-end smoke of the fedserve ops endpoint (/metrics,
## /healthz, pprof) over a 3-client loopback federation
ops-smoke:
	./scripts/ops_smoke.sh

## load-smoke: end-to-end smoke of the scale path — a fedload fleet of
## POP (default 10000) synthetic clients driven by fedserve in streaming
## fleet mode; asserts an applied quorum round, zero fleet handler panics
## and cohort-bounded server memory (see scripts/load_smoke.sh)
load-smoke:
	./scripts/load_smoke.sh

## chaos-test: the transport fault-tolerance gate under the race detector —
## fault-injected federations (chaos), quorum/drop equivalence, server
## lifecycle, the decoder fuzz seeds, and the durability suite
## (kill-and-restart resume, torn checkpoints, the wire golden corpus and
## the refusal of the deleted gob formats), the delta-ownership suites
## (Recycle: a vector released too early is a race and a NaN here), the
## shared request bodies and handler globals (Broadcast), the round loop
## against its reference round and a panicking participant, and cohort
## selection as a pure function of (seed, round) (CohortSelection).
## Short mode skips the slowest full-pipeline chaos run; the plain `test`
## target covers it.
chaos-test:
	FEDCLEANSE_WORKERS=4 $(GO) test -race -short -count=1 \
		-run 'Chaos|Fault|Quorum|FineTune|Serve|Shutdown|RemoteClient|RoundTimeout|Fuzz|Drop|Checkpoint|Resume|KillRestart|Torn|CrossVersion|Versioned|Rejections|EncodingsAgree|Recycle|Broadcast|Reference|Panic|CohortSelection' \
		./internal/transport ./internal/fl ./internal/nn ./internal/wire

## repro-diff: the experiment runner's byte-identity check — fedbench at
## BASE (default HEAD~1) against the working tree, wall-clock lines dropped
## (scripts/fedbench_diff.sh; ARGS overrides the default "-exp all")
BASE ?= HEAD~1
repro-diff:
	./scripts/fedbench_diff.sh $(BASE) $(ARGS)

## fmt: fail if any file needs gofmt
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

## vet: static analysis
vet:
	$(GO) vet ./...

## gob-check: there is one serialization — no non-test file imports
## encoding/gob, so a second format cannot grow back unnoticed
gob-check:
	@offenders=$$(grep -rl --include='*.go' '"encoding/gob"' . | grep -v '_test\.go$$'); \
	if [ -n "$$offenders" ]; then \
		echo "encoding/gob imported outside tests:"; echo "$$offenders"; exit 1; \
	fi

## fusion-check: no fused multiply-add in the arm64 layer stack, the
## defense or the federation — compiles internal/tensor, internal/nn,
## internal/core and internal/fl for arm64 with -S and fails on any
## FMADD/FMSUB/FNMADD/FNMSUB: they write every product that feeds an add
## as E(a*b) so that arm64 computes the bits amd64 does (DESIGN.md §18)
fusion-check:
	@asm=$$(GOARCH=arm64 $(GO) build -a -gcflags=./internal/tensor=-S -gcflags=./internal/nn=-S -gcflags=./internal/core=-S -gcflags=./internal/fl=-S ./internal/tensor ./internal/nn ./internal/core ./internal/fl 2>&1) || { echo "$$asm"; exit 1; }; \
	fused=$$(echo "$$asm" | grep -E 'FMADD|FMSUB|FNMADD|FNMSUB'); \
	if [ -n "$$fused" ]; then \
		echo "fused multiply-adds in the arm64 build (write the product as E(a*b)):"; echo "$$fused"; exit 1; \
	fi

## lint: the CI lint job locally — gofmt, vet, gob-check and fusion-check
## always; staticcheck and govulncheck when installed (CI installs them;
## offline machines skip with a notice rather than failing on a missing
## tool).
lint: fmt vet gob-check fusion-check
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

## check: everything CI runs
check: lint build test race chaos-test obs-test
