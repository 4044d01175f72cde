# Development targets for the cool library.

GO ?= go

.PHONY: all build test test-short race vet bench coold-e2e coold-crash figures examples fuzz clean

all: build vet test

build:
	$(GO) build ./...

# e2ebench/ is its own module: the root ./... never compiles it, and it
# builds against the exported surface of internal/controlplane.
vet:
	$(GO) vet ./...
	$(GO) -C e2ebench vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Full race-detector pass; gates the sharded planner, the Monte-Carlo
# engine and the coold daemon.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Planner-as-a-service gate: vet, then the whole coold stack — wire
# unit tests, golden wire corpus, admission determinism (the per-tenant
# cap under concurrent submits included), and the e2e differential
# sessions (live client↔daemon bit-identical to direct library calls) —
# under the race detector, then a 30s hostile-bytes fuzz of the
# frame/request decoders and a 30s differential fuzz of the spec codec
# against encoding/json.
coold-e2e:
	$(GO) vet ./internal/controlplane/ ./cmd/coold/
	$(GO) test -race ./internal/controlplane/ ./cmd/coold/
	$(GO) test ./internal/controlplane/ -fuzz FuzzWireDecode -fuzztime 30s
	$(GO) test ./internal/controlplane/ -fuzz FuzzSpecCodec -fuzztime 30s

# Durability gate: the crash-point sweep (WAL recovery differential at
# every byte offset of a recorded session), the store tests including
# the frozen legacy data dir (a version-1 checkpoint plus its WAL tail),
# the never-compacting submit path, the restart and watcher-vs-poller
# e2e differentials, the teardown of a watcher that stops reading and
# then half-closes or disconnects, and the daemon's TCP restart test,
# all under the race detector — then a 30s fuzz of the WAL replay path
# (decode never panics; accepted logs are serialization fixed points).
coold-crash:
	$(GO) vet ./internal/controlplane/ ./cmd/coold/
	$(GO) test -race -run 'TestCrash|TestWAL|TestStore|TestSubmitNeverCompacts|TestRestore|TestGoldenWAL|TestE2ERestartDifferential|TestE2EWatcher|TestE2EWatch|TestE2EObjective' -v ./internal/controlplane/
	$(GO) test -race -run 'TestRunDurableRestart' -v ./cmd/coold/
	$(GO) test ./internal/controlplane/ -fuzz FuzzWALReplay -fuzztime 30s

# Regenerate every paper figure and ablation into results/.
figures:
	$(GO) run ./cmd/coolbench -fig all -out results/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/forest
	$(GO) run ./examples/eventdetection
	$(GO) run ./examples/testbed
	$(GO) run ./examples/hetero

fuzz:
	$(GO) test ./internal/core/ -fuzz FuzzScheduleJSON -fuzztime 30s
	$(GO) test ./internal/lp/ -fuzz FuzzSolveRobustness -fuzztime 30s
	$(GO) test ./internal/geometry/grid/ -fuzz FuzzGridCandidates -fuzztime 30s
	$(GO) test ./internal/netsim/ -fuzz FuzzNetsimDiff -fuzztime 30s
	$(GO) test ./internal/core/ -fuzz FuzzEngineEquivalence -fuzztime 30s
	$(GO) test ./internal/shard/ -fuzz FuzzShardEquivalence -fuzztime 30s
	$(GO) test ./internal/core/ -fuzz FuzzIncrementalEquivalence -fuzztime 30s
	$(GO) test ./internal/controlplane/ -fuzz FuzzWireDecode -fuzztime 30s
	$(GO) test ./internal/lifetime/ -fuzz FuzzLifetimeFeasibility -fuzztime 30s
	$(GO) test ./internal/controlplane/ -fuzz FuzzWALReplay -fuzztime 30s
	$(GO) test ./internal/controlplane/ -fuzz FuzzSpecCodec -fuzztime 30s

# Scope cleanup to generated artifacts only: `go clean -fuzzcache`
# drops the cached fuzz corpora under GOCACHE, never the committed
# seed corpora in */testdata/fuzz.
clean:
	$(GO) clean -fuzzcache
	rm -rf results/
