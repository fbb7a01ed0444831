GO ?= go

.PHONY: build test race vet lint lint-fix-check fuzz bench bench-compare chaos check clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The repo's own invariant checkers (sddlint -list prints the catalog);
# see DESIGN.md §8 and §13.
lint:
	$(GO) run ./cmd/sddlint ./...

# Convergence proof for `sddlint -fix`: apply every suggested fix to a
# scratch copy of the module and fail if any file changes — on a clean
# tree, -fix must be a byte-for-byte no-op. This is what keeps suggested
# fixes trustworthy enough to auto-apply.
lint-fix-check:
	@rm -rf .lintfix-scratch
	@mkdir .lintfix-scratch
	@tar --exclude=.git --exclude=.lintfix-scratch -cf - . | tar -xf - -C .lintfix-scratch
	cd .lintfix-scratch && $(GO) run ./cmd/sddlint -fix ./...
	@if ! diff -r --exclude=.git --exclude=.lintfix-scratch -q . .lintfix-scratch > /dev/null; then \
		echo "lint-fix-check: sddlint -fix modified a clean tree:"; \
		diff -r --exclude=.git --exclude=.lintfix-scratch . .lintfix-scratch; \
		rm -rf .lintfix-scratch; \
		exit 1; \
	fi
	@rm -rf .lintfix-scratch
	@echo "lint-fix-check: -fix is a no-op on a clean tree"

race:
	$(GO) test -race ./...

# Short fuzz passes over the .bench parser, the SAT solver (verdict
# against brute force, model against every clause) and the hashed circuit
# encoder (verdict against exhaustive simulation); CI-friendly budget.
fuzz:
	$(GO) test -run=FuzzParse -fuzz=FuzzParse -fuzztime=30s ./internal/bench/
	$(GO) test -run=FuzzSolveMatchesBruteForce -fuzz=FuzzSolveMatchesBruteForce -fuzztime=30s ./internal/sat/
	$(GO) test -run=FuzzSolveOutputOneMatchesExhaustive -fuzz=FuzzSolveOutputOneMatchesExhaustive -fuzztime=30s ./internal/atpg/

# Parallel-layer benchmarks (restart search, fault-sim sharding, sweep
# rows) at workers=1 vs N plus the partition scan/refine microbenchmarks
# (DESIGN.md §14), archived as machine-readable JSON; the format and the
# speedup caveats are documented in EXPERIMENTS.md. The raw log is kept
# in a temp file so a failed bench run fails the target instead of
# feeding benchjson an empty pipe.
BENCH_RE = ^Benchmark(Parallel|DistPerClass|Refine)
BENCH_PKGS = . ./internal/core/

bench:
	$(GO) test -run='^$$' -bench='$(BENCH_RE)' -count=1 -timeout=30m $(BENCH_PKGS) > bench_parallel.out
	$(GO) run ./cmd/benchjson -o BENCH_parallel.json bench_parallel.out
	@rm -f bench_parallel.out
	@echo "wrote BENCH_parallel.json"

# Continuous bench regression gate: five short repeats of the
# parallel-layer benchmarks, diffed against the checked-in baseline.
# ns/op gates on the median of the repeats at a generous 8x (a smoke
# gate for other hardware). Each repeat runs at least 200ms, so the
# microbenchmarks reach steady state instead of timing one cold
# iteration. The deterministic custom metrics (cand_evals, ind_sd,
# restarts, ...) must match the baseline exactly in every repeat, which
# catches algorithmic drift on any machine. -short drops the big
# circuits; their baseline rows report as informational "missing" lines.
bench-compare:
	$(GO) test -run='^$$' -bench='$(BENCH_RE)' -benchtime=200ms -count=5 -short -timeout=20m $(BENCH_PKGS) > bench_compare.out
	$(GO) run ./cmd/benchjson -o bench_compare.json bench_compare.out
	$(GO) run ./cmd/benchjson compare -ns-ratio 8 BENCH_parallel.json bench_compare.json
	@rm -f bench_compare.out bench_compare.json

# Fault-injection and chaos suite (DESIGN.md §12, §15, §16) under the
# race detector: artifact corruption matrices, the faultfs seam, the
# serve middleware contracts (spans, request IDs, shed/drain), the span
# free-list and sampling determinism tests in internal/obs, the
# case-store journal/torn-tail matrix, the signal/drain exec tests, and
# the end-to-end server-integration legs (publish → serve → diagnose
# parity; shed + SIGTERM under sddload chaos; recall byte-identity and
# SIGKILL + torn-journal restart under repeated-signature -hot sddload
# traffic; the traced-serve → sddload → `sddstat serve` join).
chaos:
	$(GO) test -race -count=1 ./internal/dictio/ ./internal/faultfs/ ./internal/obs/ ./internal/serve/ ./internal/cli/ ./internal/casestore/
	$(GO) test -race -count=1 -run 'TestServe' .

# The gate for every change: static analysis (go vet + sddlint) plus the
# full suite under the race detector.
check: vet lint race

clean:
	$(GO) clean ./...
