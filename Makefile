GO ?= go

.PHONY: all build vet test race bench bench-record cover fuzz experiments clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./... | tee bench_output.txt

# Run every perfbench workload once (seed 1, 10 s, per-layer tracing on)
# and collect the three result files into BENCH_<date>.json, the record
# of the benchmark trajectory.
BENCH_WORKLOADS = cold-check warm-hit edit-loop
BENCH_RESULTS = $(or $(CARGO_TARGET_DIR),.bench_build)/perfbench-out/results

bench-record:
	set -e; for w in $(BENCH_WORKLOADS); do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 10 --trace 1; \
	done
	jq -s . $(BENCH_WORKLOADS:%=$(BENCH_RESULTS)/%.seed1.trace1.json) > BENCH_$$(date +%F).json
	jq -e 'all(.result.correct and .result.failed == 0)' BENCH_$$(date +%F).json > /dev/null

cover:
	$(GO) test -cover ./...

# Short fuzzing pass over every parser and the session's block-by-block
# parse (seeds always run under `test`).
fuzz:
	$(GO) test -fuzz=FuzzTokenize -fuzztime=30s ./internal/pytoken
	$(GO) test -fuzz=FuzzTokenCoverage -fuzztime=30s ./internal/pytoken
	$(GO) test -fuzz=FuzzParseModule -fuzztime=30s ./internal/pyparse
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/regex
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/ltlf
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/ir
	$(GO) test -run='^$$' -fuzz='^FuzzSessionParseMatchesWhole$$' -fuzztime=30s .

# Regenerate every paper artifact (tables, figures, theorems).
experiments:
	$(GO) test -run 'TestPaper' -v .

clean:
	$(GO) clean ./...
