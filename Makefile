# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-short bench bench-json bench-json-quick bench-load bench-recovery sweeps-check load-smoke fuzz-smoke profile-smoke continuation-smoke path-smoke chaos-crash chaos-recover ci figures figures-quick examples race-examples clean

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
	cd benchmark && $(GO) vet . && $(GO) test .
	$(GO) test -race -short ./internal/...
	$(GO) test -race -run 'Pool|Quarantine|Inline' . ./internal/sim ./internal/fabric ./internal/rt ./internal/core ./internal/trace ./internal/path ./internal/metrics
	$(GO) test -race -run 'ShardEquivalence|BoundedRoundsSharded|KV(ServiceCrash|Recover)BitIdentical' ./examples/workloads ./internal/core ./internal/chaos
	$(GO) run ./cmd/benchjson -quick
	$(MAKE) sweeps-check
	$(MAKE) path-smoke

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the committed coalescing benchmark artifact.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_coalesce.json

bench-json-quick:
	$(GO) run ./cmd/benchjson -quick

# Regenerate the committed service-traffic SLO artifact (KV service
# under open-loop load: offered load × size × locks-vs-shipping ×
# coalescing).
bench-load:
	$(GO) run ./cmd/benchjson -load -out BENCH_load.json

# Regenerate the committed crash-recovery artifact (KV service with a
# mid-traffic primary crash: heartbeat × size × replication on/off,
# zero-loss and crash-to-commit headlines).
bench-recovery:
	$(GO) run ./cmd/benchjson -recovery -out BENCH_recovery.json

# The committed load and recovery sweeps are virtual-time results: both
# are regenerated whole (well under a second each) and must match the
# committed files byte for byte. A diff means the model moved; rewrite
# them with bench-load / bench-recovery only when that is intended.
sweeps-check:
	@dir=$$(mktemp -d); \
	$(GO) run ./cmd/benchjson -load -out $$dir/BENCH_load.json && \
	$(GO) run ./cmd/benchjson -recovery -out $$dir/BENCH_recovery.json && \
	cmp BENCH_load.json $$dir/BENCH_load.json && \
	cmp BENCH_recovery.json $$dir/BENCH_recovery.json; \
	status=$$?; rm -rf $$dir; exit $$status

# Service-traffic gate: the load generator/histogram property tests, the
# service workloads (goldens + SLO sanity + crash rows), the SLO-level
# GOMAXPROCS-equivalence sweep under the race detector, and the committed
# sweeps regenerated and compared.
load-smoke:
	$(GO) test ./internal/load
	$(GO) test -run 'TestService|TestKVService|TestGoldenReports/kv-|TestGoldenReports/agg-' ./examples/workloads ./internal/chaos
	$(GO) test -race -run 'TestLoadShardEquivalence' ./examples/workloads
	$(MAKE) sweeps-check

# Traced quickstart driven through the whole observability pipeline:
# lifecycle tracing + metrics on, profile JSON written, then parsed and
# rendered by the cafprof CLI.
profile-smoke:
	$(GO) run ./examples/quickstart -profile /tmp/caf2go_profile_smoke.json
	$(GO) run ./cmd/cafprof -metrics /tmp/caf2go_profile_smoke.json
	rm -f /tmp/caf2go_profile_smoke.json

# Continuation-API smoke: run the continuation-driven stencil and
# pipeline against their blocking equivalents, assert identical results
# with a strictly lower main-strand blocked-time share, and push the
# continuation stencil's traced profile through the cafprof CLI.
continuation-smoke:
	$(GO) run ./cmd/contsmoke -profile /tmp/caf2go_continuation_smoke.json
	$(GO) run ./cmd/cafprof /tmp/caf2go_continuation_smoke.json
	rm -f /tmp/caf2go_continuation_smoke.json

# Critical-path tracing smoke: run the lock-protocol KV service with
# path tracing on, assert the exact latency decomposition (bucket sums
# equal measured latency for every request, digest unperturbed, tail
# dominated by lock wait), then render the paths and tail views from
# the written profile through the cafprof CLI.
path-smoke:
	$(GO) run ./cmd/pathsmoke -profile /tmp/caf2go_path_smoke.json
	$(GO) run ./cmd/cafprof paths /tmp/caf2go_path_smoke.json
	$(GO) run ./cmd/cafprof tail /tmp/caf2go_path_smoke.json
	rm -f /tmp/caf2go_path_smoke.json

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
	$(GO) test -race -run 'TestLoadShardEquivalence/kv-replicated' ./examples/workloads

figures:
	$(GO) run ./cmd/figures -out results

figures-quick:
	$(GO) run ./cmd/figures -quick

# Re-run the example workloads under the happens-before race detector
# and assert the expected conflict counts (nonzero only for the
# intentionally racy variants). The same tests run as part of `make
# test`, so CI covers them without this target.
race-examples:
	$(GO) test -run 'TestRaceExamples' -v .

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/stencil
	$(GO) run ./examples/worksteal
	$(GO) run ./examples/pipeline
	$(GO) run ./examples/termination
	$(GO) run ./examples/transpose

.PHONY: outputs
outputs:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
