# Development entry points. Everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-race check-docs figures table1 sample fuzz fuzz-smoke soak-smoke chaos-smoke grid grid-smoke clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; fi
	$(GO) vet ./...
	@# One event loop: the binary-heap oracle lives in _test.go files only.
	@! grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=bench -e '"container/heap"' -e EngineOracle .
	@# One live node: it lives in internal/runtime; cmd/bcastnode is flags, wires and framers.
	@! grep -rn --include='*.go' --exclude='*_test.go' -e '"adhocbcast/internal/view"' -e '"adhocbcast/internal/hello"' -e '"adhocbcast/internal/traffic"' cmd/bcastnode
	@# One clock per Cluster run: the in-memory fleet runs on its virtual-time queue, no locks or timers.
	@! grep -n -e '"sync"' -e '"sync/atomic"' -e '"time"' internal/runtime/cluster.go
	@# One trace event: sim.Recorder records obsv.TraceEvent, no observer interfaces.
	@! grep -rn --include='*.go' --exclude='*_test.go' -e SessionObserver -e TraceEventKind -e QueueDropCause internal
	@# One copy of a Cluster's network: its nodes share it, no init/topology envelopes.
	@! grep -n -e 'Type: "init"' -e 'Type: "topology"' internal/runtime/cluster.go
	@# One simulator Runtime: a single run is session 0, no second implementation or single/multi branches.
	@! grep -rn --include='*.go' --exclude='*_test.go' -e sessionRuntime -e runtimeOf -e protocolOf -e 'net\.multi' internal/sim
	@# One protocol-executor contract: one coverage-condition form, one Transmit, no Runtime method only the simulator implements.
	@! grep -rn --include='*.go' --exclude='*_test.go' -e CoveredEval -e TransmitExtra -e 'TakePreparedCovered([A-Za-z_]* *int)' internal cmd examples
	@# One stream-seed derivation: internal/stream; experiments keeps its own text-layout seed.
	@! grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=bench '"hash/fnv"' . | grep -v '^./internal/experiments/seed.go:'
	$(GO) test ./...
	$(GO) test -race ./internal/stats/ ./internal/experiments/ ./internal/sim/ ./internal/protocol/ ./internal/view/ ./internal/fault/ ./internal/runtime/ ./cmd/bcastnode/
	$(GO) test -tags simdebug ./internal/sim/ ./internal/protocol/ ./internal/experiments/
	$(GO) run ./cmd/checkdocs

# Documentation gate: package + exported doc comments, markdown link targets.
check-docs:
	$(GO) run ./cmd/checkdocs

test-race:
	$(GO) test -race ./...

# Regenerate every committed results_*.txt table from the declarative grid
# (grid.json): cached points in .gridcache are served content-addressed, only
# missing ones compute, so an interrupted run resumes where it died. See
# EXPERIMENTS.md "Running the grid".
grid:
	$(GO) run ./cmd/grid

# Two-run grid smoke over a tiny spec with one experiment per driver family
# (a figure; crash, hello-loss, restart, mobility and cluster extensions; load;
# scale): the cold run computes and caches, the warm rerun must be all cache
# hits (-require-cached proves it) with a byte-identical table, and the sealed
# store must pass -verify. Last, cmd/experiments (a front end over the same
# executor, with no cache) must print the committed saturation table.
grid-smoke:
	$(GO) build -o /tmp/gridsmoke-bin ./cmd/grid
	rm -rf /tmp/gridsmoke && mkdir -p /tmp/gridsmoke/out1 /tmp/gridsmoke/out2
	/tmp/gridsmoke-bin -spec cmd/grid/testdata/smoke.json -cache /tmp/gridsmoke/cache -out /tmp/gridsmoke/out1
	/tmp/gridsmoke-bin -spec cmd/grid/testdata/smoke.json -cache /tmp/gridsmoke/cache -out /tmp/gridsmoke/out2 -require-cached
	cmp /tmp/gridsmoke/out1/smoke.txt /tmp/gridsmoke/out2/smoke.txt
	/tmp/gridsmoke-bin -spec cmd/grid/testdata/smoke.json -cache /tmp/gridsmoke/cache -out /tmp/gridsmoke/out2 -verify
	$(GO) run ./cmd/experiments -ext load | cmp - results_load.txt

# Regenerate every evaluation figure (moderate replication).
figures:
	$(GO) run ./cmd/experiments -all

# Regenerate every figure at the paper's ±1% CI criterion (slow).
figures-paper:
	$(GO) run ./cmd/experiments -all -paper

table1:
	$(GO) run ./cmd/experiments -table1

# Render the Figure 9 sample network.
sample:
	$(GO) run ./cmd/bcastsim -render

# Short fuzzing campaign over the coverage conditions.
fuzz:
	$(GO) test ./internal/core/ -fuzz FuzzCoverageConditions -fuzztime 30s
	$(GO) test ./internal/core/ -fuzz FuzzMaxMinPath -fuzztime 30s
	$(GO) test ./internal/core/ -fuzz FuzzEvaluatorMatchesReference -fuzztime 30s
	$(GO) test ./internal/core/ -fuzz FuzzEvaluatorWideNeighborhood -fuzztime 30s

# CI-sized fuzz smoke under the race detector: a few seconds per target keeps
# the differential oracles (grid placement vs naive, view sets vs single
# views, evaluator vs reference on small graphs and on 60-140-neighbor hubs)
# and the live node's durable and wire surfaces (journal replay, length
# framing) exercised on every change without a full campaign.
fuzz-smoke:
	$(GO) test -race ./internal/geo/ -run '^$$' -fuzz FuzzPlaceGridMatchesNaive -fuzztime 5s
	$(GO) test -race ./internal/view/ -run '^$$' -fuzz FuzzSetMatchesNewLocal -fuzztime 5s
	$(GO) test -race ./internal/core/ -run '^$$' -fuzz FuzzEvaluatorMatchesReference -fuzztime 5s
	$(GO) test -race ./internal/core/ -run '^$$' -fuzz FuzzEvaluatorWideNeighborhood -fuzztime 5s
	$(GO) test -race ./internal/runtime/ -run '^$$' -fuzz FuzzJournalReplay -fuzztime 5s
	$(GO) test -race ./cmd/bcastnode/ -run '^$$' -fuzz FuzzLengthFramer -fuzztime 5s

# Convergence soak under the race detector: the full 200 live broadcasts on a
# Cluster's virtual clock (about a second), partitions and churn injected by
# the nemesis, delivery cross-checked against the simulator.
soak-smoke:
	$(GO) test -race ./internal/runtime/soak/

# CI-sized process-kill chaos harness under the race detector: real bcastnode
# processes over UDP, SIGKILL/restart on a seed-deterministic schedule,
# journal replay and dynamic-hello rejoin asserted (see docs/recovery.md).
# -short trims the kill and broadcast counts; the full soak (200 broadcasts,
# 30+ kills) runs without it.
chaos-smoke:
	$(GO) test -race -short ./internal/runtime/chaos/

clean:
	$(GO) clean ./...
