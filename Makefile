# Development workflow for the reproduction. `make ci` is the gate the
# repo is expected to keep green.

GO ?= go

.PHONY: ci vet build test race perfbench-test benchsmoke crashmatrix fuzz bench repro clean

ci: vet build test race perfbench-test benchsmoke crashmatrix fuzz

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The benchmark harness is its own module (perfbench/go.mod), so
# `go test ./...` at the root never reaches it. Its tests load DSx1
# under both mappings and hold every paper query to its recorded
# seed-42 answer and the cross-mapping agreements.
perfbench-test:
	cd perfbench && $(GO) test .

# One-iteration benchmark pass: proves the benchmarks still compile and
# run without paying for stable measurements. The xadt and spill smokes
# run their full experiments at reduced scale under the race detector;
# the spill one budget-forces all three blocking operators to disk.
benchsmoke:
	$(GO) test -run=NONE -bench=BenchmarkScan -benchtime=1x ./internal/engine/
	$(GO) test -race -run TestXadtSmoke ./internal/bench/
	$(GO) test -race -run TestIndexSmoke ./internal/bench/
	$(GO) test -race -run TestDurabilitySmoke ./internal/bench/
	$(GO) test -race -run TestSpillSmoke ./internal/bench/
	$(GO) test -race -run TestVectorSmoke ./internal/bench/
	$(GO) test -race -run TestMutationSmoke ./internal/bench/
	$(GO) test -race -run TestMVCCSmoke ./internal/bench/
	$(GO) test -race -run TestOptimizerSmoke ./internal/bench/
	$(GO) test -race -run TestDifferentialCostModelAxis ./internal/difftest/

# Exhaustive fault-injection sweep: crash the store at every mutating
# filesystem operation (plus torn-write variants) and require recovery to
# reproduce the committed prefix byte-for-byte. `race` already runs these
# tests once; this target keeps them callable standalone with -v output.
crashmatrix:
	$(GO) test -race -run 'TestCrashMatrix|TestRecoveredStoreAnswersQueries' ./internal/engine/wal/

# Short coverage-guided fuzz pass over the hostile-input decoders. The
# committed corpora (testdata/fuzz/) replay past crashers on every plain
# `go test`; this target additionally explores for a few seconds per
# target so CI keeps probing new inputs. Run a target standalone with a
# longer -fuzztime to dig deeper.
FUZZTIME ?= 5s
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzDTDParse -fuzztime=$(FUZZTIME) ./internal/dtd/
	$(GO) test -run=NONE -fuzz=FuzzRawScanEntities -fuzztime=$(FUZZTIME) ./internal/xadt/
	$(GO) test -run=NONE -fuzz=FuzzHeaderDecode -fuzztime=$(FUZZTIME) ./internal/xadt/
	$(GO) test -run=NONE -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME) ./internal/engine/wal/
	$(GO) test -run=NONE -fuzz=FuzzMutationReplay -fuzztime=$(FUZZTIME) ./internal/engine/wal/
	$(GO) test -run=NONE -fuzz=FuzzPostingCodec -fuzztime=$(FUZZTIME) ./internal/engine/xindex/
	$(GO) test -run=NONE -fuzz=FuzzTokenizeSuperset -fuzztime=$(FUZZTIME) ./internal/engine/xindex/
	$(GO) test -run=NONE -fuzz=FuzzStatsCodec -fuzztime=$(FUZZTIME) ./internal/engine/catalog/

bench:
	$(GO) test -run=NONE -bench=. ./...

# Reduced-scale pass over every experiment, including the parallel
# speedup table (writes BENCH_parallel.json).
repro:
	$(GO) run ./cmd/repro -quick -scales 1,2 -repeats 3

clean:
	rm -f BENCH_parallel.json BENCH_xadt.json BENCH_index.json BENCH_spill.json BENCH_durability.json BENCH_vector.json BENCH_mutation.json BENCH_concurrent.json BENCH_optimizer.json *.pprof
