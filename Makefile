GO ?= go

.PHONY: build test race vet fmt lint lint-fix-check fuzz bench bench-compare table6 chaos check clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Every Go file must be gofmt-clean.
fmt:
	@files="$$(gofmt -l .)"; if [ -n "$$files" ]; then echo "fmt: gofmt -l lists:"; echo "$$files"; exit 1; fi

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
# against brute force, model against every clause), the hashed circuit
# encoder (verdict against exhaustive simulation), the miter encoder
# (gates, variables, clauses and search against the named-netlist
# reference, on netlists with forward references too), the /diagnose body
# decoder (request and error against encoding/json), the case-store
# snapshot/journal decoder (cases and error against encoding/json) and the
# fanout-free-region fault sweep (every fault's effect against per-fault
# propagation, on random scan netlists); CI-friendly budget.
fuzz:
	$(GO) test -run=FuzzParse -fuzz=FuzzParse -fuzztime=30s ./internal/bench/
	$(GO) test -run=FuzzSolveMatchesBruteForce -fuzz=FuzzSolveMatchesBruteForce -fuzztime=30s ./internal/sat/
	$(GO) test -run=FuzzSolveOutputOneMatchesExhaustive -fuzz=FuzzSolveOutputOneMatchesExhaustive -fuzztime=30s ./internal/atpg/
	$(GO) test -run=FuzzMiterCNFMatchesReference -fuzz=FuzzMiterCNFMatchesReference -fuzztime=30s ./internal/atpg/
	$(GO) test -run=FuzzDecodeDiagnoseMatchesJSON -fuzz=FuzzDecodeDiagnoseMatchesJSON -fuzztime=30s ./internal/serve/
	$(GO) test -run=FuzzDecodeCasesMatchesJSON -fuzz=FuzzDecodeCasesMatchesJSON -fuzztime=30s ./internal/casestore/
	$(GO) test -run=FuzzSweepMatchesPropagate -fuzz=FuzzSweepMatchesPropagate -fuzztime=30s ./internal/sim/

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

# Table 6 regression golden: rerun the whole sweep (`table6 -workers 1
# -v`: every circuit, both test-set types, seed 1) and diff its stdout
# plus the -v stderr lines, per-row elapsed times stripped, against the
# committed golden. Every cell and counter in it is deterministic, so a
# re-baseline's per-row evidence is this diff; to accept one, copy the
# kept regenerated file over the golden. Wall time is printed, not gated.
TABLE6_GOLDEN = testdata/table6.golden

table6:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/table6" ./cmd/table6 || exit 1; \
	start=$$(date +%s%N); \
	"$$dir/table6" -workers 1 -v > "$$dir/stdout" 2> "$$dir/stderr" || { cat "$$dir/stderr"; exit 1; }; \
	echo "table6: sweep wall time $$(( ($$(date +%s%N) - start) / 1000000 )) ms"; \
	got="$$(mktemp)"; \
	{ cat "$$dir/stdout"; sed 's/ elapsed=[^ ]*$$//' "$$dir/stderr"; } > "$$got"; \
	if diff -u $(TABLE6_GOLDEN) "$$got"; then \
		rm -f "$$got"; echo "table6: output matches $(TABLE6_GOLDEN)"; \
	else \
		echo "table6: output differs from $(TABLE6_GOLDEN); regenerated file kept at $$got"; exit 1; \
	fi

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

# The gate for every change: formatting, static analysis (go vet +
# sddlint) plus the full suite under the race detector.
check: fmt vet lint race

clean:
	$(GO) clean ./...
