GO ?= go

.PHONY: all build check vet fmt test race bench bench-obs bench-router bench-dp bench-estimate bench-eco benchdiff serve test-serve test-store test-dp test-estimate test-eco test-fleet test-perfbench fuzz-smoke

all: check

build:
	$(GO) build ./...

# check is the pre-commit gate: vet, formatting, the full test suite and
# the race detector over the concurrent packages.
check: vet fmt test race

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/serve/... ./internal/core/... ./internal/route/... ./internal/wl/... ./internal/density/... ./internal/par/... ./internal/obs/... ./internal/store/... ./internal/snap/... ./internal/dp/... ./internal/legal/... ./internal/incr/... ./internal/estimate/... ./internal/fleet/... ./internal/eco/...

# Run the placement job server locally (see DESIGN.md §9).
serve:
	$(GO) run ./cmd/placerd -addr :8080 -log-level info

# The serving-layer suite alone, race-checked — the e2e submits a real
# placement job over HTTP and follows its SSE stream to completion.
test-serve:
	$(GO) test -race -v ./internal/serve/

# The persistence stack alone, race-checked: snapshot codec, artifact
# store, checkpoint/resume equivalence, and the placerd restart +
# dedup e2e (see DESIGN.md §10).
test-store:
	$(GO) test -race -v ./internal/snap/ ./internal/store/
	$(GO) test -race -run 'Checkpoint|Resume' ./internal/core/
	$(GO) test -race -run 'TestRestart|TestDuplicate|TestDedupKey|TestStateDir' ./internal/serve/

# FUZZTIME-bounded run of every fuzz target: malformed Bookshelf input
# (.aux, .nets, .scl, .route, .pl, .hier) must produce *ParseError, any
# POST /jobs body must get a 202 or a 4xx JSON error — never a 5xx,
# never a panic — the netlist differ must match its string-keyed
# reference on any perturbed delta, a checkpoint body behind a valid CRC
# must decode to an error or a finite, length-consistent state, and a
# wirelength value with a limit must be the uncut value's bits unless
# that exceeds the limit. Go allows one -fuzz pattern per invocation,
# hence the loop. FuzzSubmit, FuzzDiffDesigns, FuzzDecode and
# FuzzValueCut cap input minimization: at the default 60s budget per new
# input, minimizing eats the whole smoke window.
FUZZTIME ?= 30s
fuzz-smoke:
	@for t in FuzzReadAux FuzzReadNets FuzzReadScl FuzzReadRoute FuzzReadPl FuzzReadHier; do \
		echo "fuzz $$t ($(FUZZTIME))"; \
		$(GO) test -fuzz "^$$t$$" -fuzztime $(FUZZTIME) -run '^$$' ./internal/bookshelf/ || exit 1; \
	done
	@echo "fuzz FuzzSubmit ($(FUZZTIME))"
	$(GO) test -fuzz '^FuzzSubmit$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s -run '^$$' ./internal/serve/
	@echo "fuzz FuzzDiffDesigns ($(FUZZTIME))"
	$(GO) test -fuzz '^FuzzDiffDesigns$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s -run '^$$' ./internal/eco/
	@echo "fuzz FuzzDecode ($(FUZZTIME))"
	$(GO) test -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s -run '^$$' ./internal/snap/
	@echo "fuzz FuzzValueCut ($(FUZZTIME))"
	$(GO) test -fuzz '^FuzzValueCut$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s -run '^$$' ./internal/wl/

# Table-2 style placement benchmarks (see DESIGN.md).
bench:
	$(GO) test -bench Table2 -benchmem -run xxx .

# Telemetry-overhead benchmarks: the Disabled* cases must stay at 0
# allocs/op, and route "off" must track the uninstrumented baseline.
bench-obs:
	$(GO) test -bench . -benchmem -run xxx ./internal/obs/
	$(GO) test -bench RouteDesignObs -benchmem -run xxx ./internal/route/

# Router micro-benchmarks plus the machine-readable BENCH_router.json.
bench-router:
	$(GO) test -bench . -benchmem -run xxx ./internal/route/
	$(GO) run ./cmd/benchroute

# The fleet suite alone, race-checked: lease reassignment, retry
# budgets, checkpoint handoff, stitched SSE — plus the 2-worker process
# e2e that SIGKILLs the owning worker mid-job and asserts completion
# after reassignment (see DESIGN.md §13).
test-fleet:
	$(GO) test -race -v ./internal/fleet/

# The end-to-end benchmark's self-tests (about 70 s). perfbench is a
# nested module (repro/perfbench, replace → ../), so `go test ./...` at the
# root never reaches it.
test-perfbench:
	cd perfbench && GOFLAGS=-mod=mod $(GO) test .

# Detailed-placement suite alone, race-checked: incremental-engine
# differentials, cross-worker .pl determinism, and placement invariants
# (see DESIGN.md §11).
test-dp:
	$(GO) test -race -v ./internal/incr/ ./internal/dp/ ./internal/legal/

# Routability-estimator suite alone, race-checked: incremental-vs-full
# bitwise differentials, router-correlation drift gate, cross-worker
# determinism, and the estimate-mode placer/DP/serving wiring
# (see DESIGN.md §14).
test-estimate:
	$(GO) test -race -v ./internal/estimate/
	$(GO) test -race -run 'Estimate' -v ./internal/core/ ./internal/dp/
	$(GO) test -race -run 'TestStatusCongestionSource' -v ./internal/serve/

# Incremental (ECO) placement suite alone, race-checked: netlist-diff
# edge cases, windowed-repair legality/determinism, and the serving
# layer's delta-job path (see DESIGN.md §15).
test-eco:
	$(GO) test -race -v ./internal/eco/
	$(GO) test -race -run 'TestDeltaJob' -v ./internal/serve/

# Detailed-placement hot-path benchmark plus the machine-readable
# BENCH_dp.json: the incremental engine across worker counts.
# BENCH_DP_FLAGS trims it for CI.
BENCH_DP_FLAGS ?= -cells 2000 -workers 1,2,8 -out BENCH_dp.json
bench-dp:
	$(GO) test -bench Optimize -benchmem -run xxx ./internal/dp/
	$(GO) run ./cmd/benchdp $(BENCH_DP_FLAGS)

# Routability-estimator benchmark plus the machine-readable
# BENCH_estimate.json: recompute and incremental-move cost, correlation
# against the real router, and the estimate-vs-route placer comparison.
# benchest self-gates (signal speedup ≥ 2x, pearson ≥ 0.6, routed quality
# within 5% of route mode); BENCHEST_FLAGS must stay in sync with the
# benchdiff recipe below so baseline and current runs share keys.
BENCHEST_FLAGS ?=
bench-estimate:
	$(GO) test -bench . -benchmem -run xxx ./internal/estimate/
	$(GO) run ./cmd/benchest $(BENCHEST_FLAGS) -out BENCH_estimate.json

# Incremental-placement benchmark: diff cost, the from-scratch and
# repaired delta rows (self-gated on speedup, quality and cross-worker
# determinism) and the machine-readable BENCH_eco.json. BENCHECO_FLAGS
# must stay in sync with the benchdiff recipe below so baseline and
# current runs share keys.
BENCHECO_FLAGS ?=
bench-eco:
	$(GO) run ./cmd/bencheco $(BENCHECO_FLAGS) -out BENCH_eco.json

# Bench regression gate: fresh benchroute/benchdp/benchest/bencheco runs
# land in .bench/ (gitignored) and are diffed against the committed
# BENCH_*.json baselines. Every metric of every row is gated by its
# class (wall, alloc, quality, floor; see internal/bench). Exits non-zero
# on a regression. Wall time is gated loosely by default because
# machines differ; BENCHDIFF_FLAGS widens or tightens every gate (see
# cmd/benchdiff -h). A missing committed baseline passes with a note; a
# baseline run or metric missing from the fresh results fails.
BENCHDIFF_FLAGS ?= -max-wall-ratio 10
benchdiff:
	@mkdir -p .bench
	$(GO) run ./cmd/benchroute -workers 1 -out .bench/router.json
	$(GO) run ./cmd/benchdp -out .bench/dp.json
	@fail=0; \
	$(GO) run ./cmd/benchest $(BENCHEST_FLAGS) -out .bench/estimate.json || fail=1; \
	$(GO) run ./cmd/bencheco $(BENCHECO_FLAGS) -out .bench/eco.json || fail=1; \
	$(GO) run ./cmd/benchdiff -baseline BENCH_router.json -current .bench/router.json $(BENCHDIFF_FLAGS) || fail=1; \
	$(GO) run ./cmd/benchdiff -baseline BENCH_dp.json -current .bench/dp.json $(BENCHDIFF_FLAGS) || fail=1; \
	$(GO) run ./cmd/benchdiff -baseline BENCH_estimate.json -current .bench/estimate.json $(BENCHDIFF_FLAGS) || fail=1; \
	$(GO) run ./cmd/benchdiff -baseline BENCH_eco.json -current .bench/eco.json $(BENCHDIFF_FLAGS) || fail=1; \
	exit $$fail
