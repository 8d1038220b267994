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

# Every fuzz target, as package:Target, each run for FUZZTIME (CI runs
# the list at FUZZTIME=10s). TestFuzzTargetsListed fails when a Fuzz
# function is missing here or an entry names none.
FUZZTIME ?= 30s
FUZZ_TARGETS = \
	.:FuzzCheckPipeline \
	.:FuzzSessionParseMatchesWhole \
	./internal/automata:FuzzDeterminize \
	./internal/automata:FuzzDeterminizeMinimizeMatchOracle \
	./internal/automata:FuzzIntersect \
	./internal/automata:FuzzMinimize \
	./internal/automata:FuzzSearchMatchesProduct \
	./internal/automata:FuzzToRegex \
	./internal/ir:FuzzHashStability \
	./internal/ir:FuzzParse \
	./internal/ltlf:FuzzParse \
	./internal/mine:FuzzIngestFrame \
	./internal/pyparse:FuzzParseModule \
	./internal/pytoken:FuzzTokenCoverage \
	./internal/pytoken:FuzzTokenize \
	./internal/regex:FuzzParse \
	./internal/server:FuzzBatchRequest \
	./internal/store:FuzzStoreDecode

fuzz:
	set -e; for t in $(FUZZ_TARGETS); do \
		$(GO) test $${t%%:*} -run '^$$' -fuzz "^$${t##*:}\$$" -fuzztime $(FUZZTIME); \
	done

# Regenerate every paper artifact (tables, figures, theorems).
experiments:
	$(GO) test -run 'TestPaper' -v .

clean:
	$(GO) clean ./...
