# Tier-1 verification and developer conveniences.

GO ?= go

## BENCH_PATTERN: the benchmark set snapshots record — the agreement
## throughput suite, the zero-allocation micro paths, the
## commit-channel dedup byte metrics (commit-B/req and wire-B/req on a
## strong-read-heavy workload, with dedup on and off), the
## keyspace-shard sweep (S=1/2/4 end-to-end write latency; S=1 is the
## unsharded baseline), the adaptive-batching sweep (low/medium/
## saturated offered load, best-static vs adaptive; the adaptive
## acceptance bar is within ~10% of best-static at every level), and
## the per-suite crypto dimension: sign/verify micro benches for
## RSA-1024 vs Ed25519 plus the Ed25519 agreement-throughput rows, so
## snapshots record which suite produced each number.
BENCH_PATTERN := RSAThroughput|MACThroughput|MicroPipelineRSA|MACVector|MACSingle|CommitDedup|ShardSweep|AdaptiveSweep|Ed25519Throughput|RSASign|RSAVerify|Ed25519Sign|Ed25519Verify

.PHONY: check build vet test race fuzz-seeds soak soak-smoke bench bench-test bench-snapshot bench-compare loc tidy

## check: what CI runs — build, vet, full test suite, and the
## concurrency-sensitive packages under the race detector (the MAC
## authenticator lanes and certificate batches are race-prone surface).
check: build vet test fuzz-seeds race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

## race: the concurrency-sensitive packages under the race detector
## (harness included: sharded clusters aggregate per-shard stats while
## workload goroutines write them; memnet included: every sending
## goroutine shares the delivery clock's heap; checkpoint included: an
## announcement is asked about under the lock, verified outside it and
## admitted under it again).
race:
	$(GO) test -race ./internal/crypto/ ./internal/consensus/pbft/ ./internal/core/ ./internal/irmc/... ./internal/checkpoint/ ./internal/harness/ ./internal/tune/ ./internal/stats/ ./internal/transport/memnet/

## soak: the chaos scenario matrix — crash/restart, partition-and-heal,
## leader churn, and the gray-failure scenarios (slow leader rotated,
## slow follower left alone, degrade/restore timeline) — under the race
## detector, with the continuous invariant checks (no divergent
## replies, no stalled commit subchannel, per-key linearizability).
## Failing runs drop a JSON artifact (seed + event timeline + rotation
## counters + violations) under internal/chaos/chaos-artifacts/ for
## replay. Scheduled CI runs this; it is deliberately not part of
## `make check`.
soak:
	$(GO) test -race -count=1 -timeout 30m -v -run 'TestChaos|TestPartitionHeal|TestWarmRestart|TestSlow' ./internal/chaos/

## soak-smoke: the same scenario matrix once, without the race
## detector — fast enough to run on every push.
soak-smoke:
	$(GO) test -count=1 -timeout 10m -run 'TestChaos|TestPartitionHeal|TestWarmRestart|TestSlow' ./internal/chaos/

## fuzz-seeds: run the wire-codec fuzz targets over their seed corpus
## only (no fuzzing engine) — fast enough for every CI run.
fuzz-seeds:
	$(GO) test -run 'Fuzz' ./internal/wire/

## bench: agreement-throughput benchmarks — signature PBFT (serial vs
## parallel pipeline) against the MAC-vector fast path, plus the
## batch-size sweep of the batched commit data plane.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 2000x . ./internal/crypto/

## bench-test: vet and test the repository benchmark driver. bench/ is
## its own module (it builds apart from the product), so the root
## `go test ./...` never reaches its tests.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

## bench-snapshot: run the same benchmarks with -json and -benchmem
## (allocs/op and B/op are first-class regression metrics of the
## zero-allocation data plane) and store the raw event stream as
## BENCH_<date>.json, so the perf trajectory across PRs is
## machine-readable (each line is a go test JSON event; Output lines
## carry the usual "req/s" metrics).
## (10000x rather than bench's interactive 2000x: snapshots feed
## cross-PR comparisons, and at 2000x the ~0.2s measurement window is
## dominated by scheduler noise on the shared CI container.)
bench-snapshot:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 10000x -benchmem -json . ./internal/crypto/ > BENCH_$$(date +%Y%m%d).json
	@echo "wrote BENCH_$$(date +%Y%m%d).json"

## bench-compare: diff two bench snapshots, e.g.
##   make bench-compare OLD=BENCH_20260601.json [NEW=BENCH_20260727.json]
## NEW defaults to the most recent snapshot. Uses benchstat when
## installed, a plain-text metric table otherwise.
bench-compare:
	@test -n "$(OLD)" || { echo "usage: make bench-compare OLD=<snapshot.json> [NEW=<snapshot.json>]"; exit 2; }
	@new="$(NEW)"; \
	if [ -z "$$new" ]; then new=$$(ls -1 BENCH_*.json 2>/dev/null | tail -1); fi; \
	test -n "$$new" || { echo "bench-compare: no BENCH_*.json snapshot found; run make bench-snapshot or pass NEW="; exit 2; }; \
	test "$$new" != "$(OLD)" || { echo "bench-compare: NEW resolved to OLD ($$new); pass NEW=<other snapshot>"; exit 2; }; \
	$(GO) run ./tools/benchcompare $(OLD) $$new

## loc: the two size numbers a simplification is judged by — lines of
## product Go code in the root module (every line of a .go file that is
## not a _test.go, not under bench/, and not in a test-support package:
## irmctest, cryptotest), and the same for internal/irmc/** alone.
## At PR 16: 21481 and 2640.
LOC = find $(1) -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/irmctest/*' ! -path '*/cryptotest/*' -print0 | xargs -0 cat | wc -l
loc:
	@echo "product Go lines, root module:     $$($(call LOC,.))"
	@echo "product Go lines, internal/irmc/**: $$($(call LOC,./internal/irmc))"

tidy:
	$(GO) mod tidy
