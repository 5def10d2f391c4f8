GO ?= go

.PHONY: ci vet build test race flake sim cover sleepfloor bench-check grid-bench inject-bench smoke grid-smoke serve-smoke fabric-smoke synth-smoke fuzz-smoke fuzz-seed clean

ci: vet build test race flake sim cover sleepfloor bench-check grid-bench inject-bench fuzz-smoke smoke grid-smoke serve-smoke fabric-smoke synth-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Whole-repo race run: the injector, switch simulator, controller, and
# telemetry layer all share hot paths with the campaign worker pool, so
# everything stays under the race detector on every CI run. The grid and
# its service run three times over: their lease window, worker queue and
# flusher interleave differently from run to run, and one pass misses
# races a second one finds. The switch simulator and the event loop it and
# the injector run on go five times: every switch's handlers run on a shard
# loop, and setConnected, SetLinkDown and data-plane input interleave
# differently from run to run. So does netem: every proxied byte crosses a
# transport ring's lock, and a ring grows under that lock.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=3 ./internal/grid ./internal/gridsvc
	$(GO) test -race -count=5 ./internal/evloop ./internal/switchsim ./internal/netem

# Flake gate: the fast concurrent packages twenty times over. Their
# loops, leases and reconnects interleave differently from run to run, and
# a test that fails one run in thirty passes a single pass. Tier-1 as a
# whole joins once it runs in seconds.
flake:
	$(GO) test -count=20 ./internal/evloop ./internal/switchsim ./internal/netem ./internal/core/inject ./internal/grid ./internal/gridsvc

# Virtual-time lane: the whole suite again with testing/synctest built in.
# Files under `//go:build goexperiment.synctest` replay Table II, Fig. 11,
# conformance and fabric-sweep.json at TimeScale 1 in internal/simlane
# bubbles, where every wait is virtual: each scenario takes milliseconds
# of wall time, and baseline rows are asserted to the nanosecond.
sim:
	GOEXPERIMENT=synctest $(GO) test ./...

# Coverage ratchet: the language core and its compiler are the packages
# every generated program flows through, the grid/service layer is the
# durability substrate every distributed campaign rides, and the event
# loop carries every proxied and hosted message, so their statement
# coverage is gated with hard floors (coverfloor fails CI below them).
cover:
	$(GO) test -cover ./internal/core/... ./internal/evloop/... ./internal/grid/... ./internal/gridsvc/... ./internal/topo/... > /tmp/attain-cover.txt
	$(GO) run ./docs/ci/coverfloor \
		attain/internal/core/lang=90 attain/internal/core/compile=90 \
		attain/internal/evloop=85 \
		attain/internal/grid=80 attain/internal/gridsvc=80 \
		attain/internal/topo=80 \
		< /tmp/attain-cover.txt

# Sleep ratchet: tests that wait on the wall clock flake under load (make
# flake) and slow tier-1, so the count of time.Sleep calls in _test.go
# files may only fall. Lower SLEEP_CEILING when a change removes some.
SLEEP_CEILING = 68
sleepfloor:
	$(GO) run ./docs/ci/sleepfloor -max $(SLEEP_CEILING) .

# The benchmark harness (bench/, what BENCHMARK.json runs) is a client of
# the product API: a change to inject, topo, switchsim or campaign that it
# cannot build or pass against fails here, before the gate sees it.
bench-check:
	$(GO) vet ./bench
	$(GO) test ./bench

# The grid's own benchmarks, once each: a codec or API change that breaks
# them fails here rather than at the next person who wants a number.
grid-bench:
	$(GO) test ./internal/grid -run '^$$' -bench 'GridLocalStub|EncodeResultBatch' -benchtime 1x

# The injector's message-path benchmarks, once each: a change that breaks
# baselineProcess or the loop harness they share fails here.
inject-bench:
	$(GO) test ./internal/core/inject -run '^$$' -bench 'InjectorPassthrough|InjectorShardedBatch|InjectorMaterialized' -benchtime 1x

# End-to-end smoke: one short interruption scenario through the campaign
# CLI with telemetry tracing on, artifacts written to a scratch directory.
smoke:
	$(GO) run ./cmd/attain campaign -spec examples/campaign/smoke.json -trace -out /tmp/attain-smoke
	@test -s /tmp/attain-smoke/results.jsonl
	@ls /tmp/attain-smoke/traces/*.jsonl > /dev/null

# Distributed smoke: a coordinator plus two spawned worker subprocesses
# over loopback run the grid example spec end to end — the subprocess
# spawn path, frame protocol, leases, and merged artifacts all exercised
# for real. (internal/grid is also under `make race` via ./...)
grid-smoke:
	$(GO) run ./cmd/attain grid local -spec examples/campaign/grid-smoke.json -workers 2 -out /tmp/attain-grid-smoke
	@test -s /tmp/attain-grid-smoke/results.jsonl
	@grep -q '"status":"ok"' /tmp/attain-grid-smoke/results.jsonl

# Service durability smoke: build attain for real, run `attain serve`,
# submit a campaign over HTTP, SIGKILL the service mid-run, restart it
# over the same root, and assert the resumed campaign's results.jsonl is
# byte-identical (modulo wall-clock fields) to an uninterrupted
# single-process run — the checkpoint/restart contract end to end.
serve-smoke:
	$(GO) run ./docs/ci/servesmoke -spec examples/campaign/serve-smoke.json

# Fabric smoke, three gates:
#  1. A leaf-spine fabric through the campaign CLI under LLDP poisoning —
#     full control-plane and discovery convergence plus the deviation
#     signal (phantom links in the controller's topology view).
#  2. Shard invariance: the same campaign re-run on 4 event loops
#     (fabric_shards, fabric-smoke-sharded.json) must agree byte-for-byte
#     with the default one-loop run on the shard-invariant projection of
#     results.jsonl — shard count is an execution knob, never an outcome
#     change.
#  3. Large-fabric smoke: a scaled-down jellyfish:1500x4 poisoned
#     convergence (the 5,000-switch headline's CI proxy) and the jellyfish
#     generator at 5,000 and 20,000 switches must complete at
#     -benchtime=1x. They gate completion, not speed: `go run ./bench
#     -compare` is the regression gate, and TestJellyfishAllocBudget
#     bounds the generator's garbage.
FABRIC_KEEP = index,name,kind,profile,attack,topology,seed,status,fabric.switches,fabric.links,fabric.hosts,fabric.connected,fabric.discovery_converged,fabric.deviation,fabric.flaps_applied
fabric-smoke:
	$(GO) run ./cmd/attain campaign -spec examples/campaign/fabric-smoke.json -out /tmp/attain-fabric-smoke
	@test -s /tmp/attain-fabric-smoke/fabric.csv
	@grep -q '"connected":true' /tmp/attain-fabric-smoke/results.jsonl
	@grep -q '"discovery_converged":true' /tmp/attain-fabric-smoke/results.jsonl
	@grep -q '"deviation":true' /tmp/attain-fabric-smoke/results.jsonl
	$(GO) run ./cmd/attain campaign -spec examples/campaign/fabric-smoke-sharded.json -out /tmp/attain-fabric-smoke-sharded
	$(GO) run ./docs/ci/canonjsonl -keep $(FABRIC_KEEP) < /tmp/attain-fabric-smoke/results.jsonl > /tmp/attain-fabric-proj-a
	$(GO) run ./docs/ci/canonjsonl -keep $(FABRIC_KEEP) < /tmp/attain-fabric-smoke-sharded/results.jsonl > /tmp/attain-fabric-proj-b
	cmp /tmp/attain-fabric-proj-a /tmp/attain-fabric-proj-b
	$(GO) test ./internal/topo/ -run='^$$' -bench='BenchmarkFabricConverge/jellyfish:1500x4' -benchtime=1x -timeout=5m
	$(GO) test ./internal/topo/ -run='^$$' -bench='BenchmarkJellyfish' -benchtime=1x -timeout=5m

# Synth smoke: generator determinism (two same-seed runs must agree on
# the fleet digest, and a 1k-program differential verify must hold), then
# a small generated-program campaign end to end — detect.csv must appear
# and two same-seed campaign runs must agree on the deterministic
# projection of results.jsonl (program digests, status, coordinates).
synth-smoke:
	$(GO) run ./cmd/attain synth -count 200 -seed 42 -digest > /tmp/attain-synth-digest-a
	$(GO) run ./cmd/attain synth -count 200 -seed 42 -digest > /tmp/attain-synth-digest-b
	cmp /tmp/attain-synth-digest-a /tmp/attain-synth-digest-b
	$(GO) run ./cmd/attain synth -count 1000 -seed 42 -verify -digest > /dev/null
	$(GO) run ./cmd/attain campaign -spec examples/campaign/synth-smoke.json -out /tmp/attain-synth-smoke-a
	@test -s /tmp/attain-synth-smoke-a/detect.csv
	@grep -q '"status":"ok"' /tmp/attain-synth-smoke-a/results.jsonl
	$(GO) run ./cmd/attain campaign -spec examples/campaign/synth-smoke.json -out /tmp/attain-synth-smoke-b
	$(GO) run ./docs/ci/canonjsonl < /tmp/attain-synth-smoke-a/results.jsonl > /tmp/attain-synth-proj-a
	$(GO) run ./docs/ci/canonjsonl < /tmp/attain-synth-smoke-b/results.jsonl > /tmp/attain-synth-proj-b
	cmp /tmp/attain-synth-proj-a /tmp/attain-synth-proj-b

# Reseed the compile fuzz corpora from generator output: well-formed
# whole programs for FuzzParseAttack, their rule conditions for
# FuzzParseExpr. Deterministic (seed 42), so re-running is idempotent.
fuzz-seed:
	$(GO) run ./cmd/attain synth -count 16 -seed 42 -corpus internal/core/compile/testdata/fuzz

# Short fuzz pass over every Fuzz target (go's -fuzz wants exactly one
# match per invocation, hence one line per target).
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/switchsim/ -run=^$$ -fuzz=FuzzTableLookupDifferential -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/openflow/ -run=^$$ -fuzz=FuzzUnmarshal$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/openflow/ -run=^$$ -fuzz=FuzzFrameViewDifferential -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core/compile/ -run=^$$ -fuzz=FuzzParseSystem$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core/compile/ -run=^$$ -fuzz=FuzzParseAttack$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core/compile/ -run=^$$ -fuzz=FuzzParseExpr$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core/compile/ -run=^$$ -fuzz=FuzzCompiledCondDifferential$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/grid/ -run=^$$ -fuzz=FuzzFrameRead$$ -fuzztime=$(FUZZTIME)

clean:
	rm -rf /tmp/attain-smoke /tmp/attain-grid-smoke /tmp/attain-fabric-smoke \
		/tmp/attain-fabric-smoke-sharded /tmp/attain-synth-smoke-a /tmp/attain-synth-smoke-b
