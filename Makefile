# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-short bench fuzz-smoke chaos-crash chaos-recover ci figures figures-check examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# What .github/workflows/ci.yml runs (the workflow adds fuzz-smoke). The
# benchmark is a module of its own, frozen at go 1.22, that replaces
# caf2go with this tree: it is the first thing to stop building when the
# root go.mod moves, and nothing under ./... reaches it.
ci: vet build test
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l . lists:"; echo "$$out"; exit 1; fi
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./...
	cd benchmark && $(GO) vet . && $(GO) test .
	$(GO) test -race ./...
	$(GO) test -tags quarantinepools ./...
	$(MAKE) examples
	$(MAKE) figures-check

bench:
	$(GO) test -bench=. -benchmem ./...

# Short fuzz pass over the conflict-range intersection kernel.
fuzz-smoke:
	$(GO) test -fuzz=FuzzRangesIntersect -fuzztime=30s -run '^$$' ./internal/race

# Crash-resilience sweep: every chaos workload with an image hard-crashed
# mid-run, detector on (typed errors, no deadlocks) and detector off
# (legacy deadlock pinned), plus the resilient-finish property tests.
chaos-crash:
	$(GO) test -run 'Crash|DetectorOn|Resilient' -v ./internal/chaos ./internal/core .

# Recovery gate: the replication manager/table unit tests, the
# replicated-coarray mirror/failover tests, the KV recovery chaos suite
# (zero loss, bounded tail, back-to-back and mid-recovery crashes,
# bit-identity), and the replicated GOMAXPROCS-equivalence row under -race.
chaos-recover:
	$(GO) test ./internal/repl
	$(GO) test -run 'TestReplCoarray|TestReplication' -v .
	$(GO) test -run 'TestKVRecover' -v ./internal/chaos
	$(GO) test -race -run 'TestLoadGOMAXPROCSEquivalence/kv-replicated' ./examples/workloads

# Rewrite the committed outputs under results/: the paper's figures and
# the regression sweeps (coalescing, service load, crash recovery). Run
# it only when the model moves on purpose. The two large outputs run by
# name: go run ./cmd/figures -only fig17-large,uts-1024-d12
figures:
	$(GO) run ./cmd/figures

# Every committed output is virtual-time model output: regenerated into a
# temp dir (about 30 s), each file must match results/ byte for byte. A
# diff means the model moved.
figures-check:
	$(GO) run ./cmd/figures -check

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/stencil
	$(GO) run ./examples/worksteal
	$(GO) run ./examples/pipeline
	$(GO) run ./examples/termination
	$(GO) run ./examples/transpose
	$(GO) run ./examples/randomaccess
	$(GO) run ./examples/uts

.PHONY: outputs
outputs:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
