GO ?= go

.PHONY: build vet fmt-check test test-race test-race-internal test-race-readpath test-commit test-recovery test-gc test-cold test-chaos test-chaos-server test-shard test-server test-sql-prepared test-allocs fuzz fuzz-proto fuzz-row bench-build test-bench bench-smoke examples loc ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any Go file of the root module or of bench/ is not
# gofmt-clean. Check only: nothing is rewritten.
fmt-check:
	@out=$$(find . -name '*.go' -not -path './.bench_build/*' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Race-detector pass over the engine internals only: the B+tree latch
# coupling and buffer pool stress tests live here, and this subset is
# fast enough to run on every change.
test-race-internal:
	$(GO) test -race -short ./internal/...

# The packages a point read crosses (hash index, B+tree, RID map, row
# codec, the lock table, whose entries are recycled, and the buffer
# pool, whose frames hand out a pointer to their page) under the race
# detector on one, two and four cores: several defects only show on
# more than one. The full ./internal/... pass at -cpu 1,2,4 waits for
# the 2PC restart flake in internal/chaos (ROADMAP 0(e)).
test-race-readpath:
	$(GO) test -race -cpu 1,2,4 ./internal/index/... ./internal/ridmap/ ./internal/row/ ./internal/txn/ ./internal/storage/buffer/

# The commit pipeline under the race detector on one, two and four
# cores: group commit, whose committers lead their own rounds (wal), and
# every caller of the one dual-log protocol — user commit, 2PC prepare,
# heap pack, freeze — with the crash-between-the-logs, Halt and
# log-poisoning tests around it, and two shards checkpointing beside
# cross-shard writers (the checkpoint lock must not deadlock them).
test-commit:
	$(GO) test -race -cpu 1,2,4 ./internal/wal/
	$(GO) test -race -cpu 1,2,4 ./internal/core/ -run 'Commit|Prepare|TwoPC|Pack|Freeze|Halt|Poison'
	$(GO) test -race -cpu 1,2,4 ./internal/shard/ -run 'Checkpoint'

# Recovery pipeline tests (crash injection, parallel==serial
# equivalence incl. one partition replayed in RID lanes, zero-filled
# log tails, checkpoint-failure surfacing, the update-delta chains
# crashed at every record and the delta without a base), the WAL frame
# scanner (block reads, torn tails, mid-log corruption) and the delta
# record's golden file, the node's concurrent shard recovery and its
# rolled-up stats under the race detector on one, two and four cores,
# and one run of the phase-timed 200 k-row restart benchmark, so that it
# keeps building and running.
test-recovery:
	$(GO) test -race -cpu 1,2,4 ./internal/wal/ -run 'Repair|Torn|Reader|Scan|Zero|Golden'
	$(GO) test -race -cpu 1,2,4 ./internal/core/ -run 'Recovery|Checkpoint|Compaction|Crash|Halt|DeltaChain'
	$(GO) test -race -cpu 1,2,4 ./internal/shard/ -run 'Recovery|InDoubt|Restart|Open'
	$(GO) test -race -cpu 1,2,4 ./btrim/ -run 'TestNodeRecoveryStats'
	$(GO) test -run '^$$' -bench RecoverOnePartition -benchtime 1x ./internal/core/

# IMRS-GC and allocator correctness under the race detector on one,
# two and four cores: the reclamation rule (a reader registered before
# a retire blocks its free), background==serial passes, concurrent
# producer/reclaim stress, Stop() late-reclaimable drain, allocator
# churn/Used() exactness, the reader registry, and in core the
# commit-window reader tests, pack, ExplainRow and the DML
# allocation budgets.
test-gc:
	$(GO) test -race -cpu 1,2,4 ./internal/imrsgc/ ./internal/imrs/ ./internal/txn/
	$(GO) test -race -cpu 1,2,4 ./internal/core/ -run 'Reclaim|AllocBudget|Pack|Explain'

# Columnar cold-store tests under the race detector on one, two and
# four cores: segment codec round-trips, freeze/un-freeze/delete
# visibility, the scan-against-point-read checks, the one-cut scan beside
# every pack move and beside a live read-modify-write + packer load, and
# the freeze -> scan -> un-freeze -> crash-recover property test.
test-cold:
	$(GO) test -race -cpu 1,2,4 ./internal/storage/colseg/
	$(GO) test -race -cpu 1,2,4 ./internal/core/ -run 'TestCold|TestScan'

# Every chaos scenario (internal/chaos) under the race detector, once:
# the engine soak (transient device/WAL glitches, hard log deaths,
# crash/recover), shard-halt, the coordinator and participant 2PC
# crashes and connection drops, over the node and over SQL on loopback
# TCP. Longer sweeps: go run ./cmd/chaos -seeds 8 -cycles 1000
# [-scenario name,...].
test-chaos:
	$(GO) test -race ./internal/chaos/

# The resolver and decision-journal tests and the server-limits suite
# (deadlines, connection caps, idle reaping, panic isolation, oversized
# frames, goroutine leaks) under the race detector. The wire chaos
# scenarios run in test-chaos.
test-chaos-server:
	$(GO) test -race ./internal/shard/ -run 'Resolver|Journal'
	$(GO) test -race ./internal/server/ -run 'Limits|Deadline|MaxConns|IdleReap|Panic|Oversized|GoroutineLeak'

# Node tests under the race detector: the router/2PC/in-doubt recovery
# and fan-out suite, the public API on one and on three shards (with the
# directory-layout checks) and the engine-level prepare/decide/resolve
# tests. The shard-halt chaos scenario runs in test-chaos.
test-shard:
	$(GO) test -race ./internal/shard/ ./btrim/
	$(GO) test -race ./internal/core/ -run 'Prepare|InDoubt|TwoPC|LocalOutcome'

# SQL front end, wire server, and shell tests under the race detector:
# lexer/parser/planner/executor suites, the protocol round-trip and
# drain tests (each on one and on three shards), and the N-TCP-clients
# mixed-DML isolation stress.
test-server:
	$(GO) test -race ./internal/sql/ ./internal/server/ ./internal/cli/

# The prepared-statement and plan-cache front end under the race
# detector: PREPARE/EXECUTE/DEALLOCATE, transparent-cache hit/miss/
# invalidation accounting, DDL invalidation on one shard and on three,
# IN and index-equality access paths, and the pipelined wire batching
# suite (mid-batch failure, concurrent clients).
test-sql-prepared:
	$(GO) test -race ./internal/sql/ -run 'Prepare|Prepared|PlanCache|Transparent|INAndIndex|DropTable'
	$(GO) test -race ./internal/server/ -run 'Pipeline|Batch'

# Every allocation gate (testing.AllocsPerRun budgets of the read,
# write, commit, WAL, index and wire-decode paths) without the race
# detector, whose instrumentation allocates and which the gates skip,
# on one and on two cores.
test-allocs:
	$(GO) test -cpu 1,2 -run 'Allocs|AllocBudget|DoesNotAllocate|ZeroAllocs' ./...

# Fuzz the byte-level decoders (WAL record bodies, WAL frame scanner,
# row codec, cold-store segments) for a short smoke window each; seed
# corpora live in testdata/fuzz.
FUZZTIME ?= 30s
fuzz: fuzz-proto fuzz-row
	$(GO) test ./internal/wal/ -run '^$$' -fuzz FuzzDecodeRecord -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal/ -run '^$$' -fuzz FuzzScanFrames -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage/colseg/ -run '^$$' -fuzz FuzzSegmentDecode -fuzztime $(FUZZTIME)

# Fuzz the wire-protocol decoders: the client-side response parser
# (trusting a remote server is the exposure) and the server-side batch
# parser (arbitrary client bytes). Seed corpora live in
# internal/server/testdata/fuzz.
fuzz-proto:
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzDecodeResponse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzDecodeBatch -fuzztime $(FUZZTIME)

# Fuzz the row decoder, whose strings share one copy of the row image,
# and the splice of an update delta onto an image (the sysimrslogs delta
# record's replay): run by fuzz at full length and by ci for a short
# window each.
fuzz-row:
	$(GO) test ./internal/row/ -run '^$$' -fuzz '^FuzzRowDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/row/ -run '^$$' -fuzz '^FuzzRowDelta$$' -fuzztime $(FUZZTIME)

# bench/ is frozen outside benchmark PRs but compiles against btrim,
# internal/sql and internal/shard: vet and build it so that a rename
# there fails the main CI job, not only the bench-smoke one.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) build ./...

# The repo's benchmark lives in its own module under bench/ (root
# `go test ./...` does not descend into it): its unit tests plus a full
# smoke of all four workloads including crash/recover/verify.
test-bench:
	cd bench && $(GO) test ./...

# Tiny run of every BENCHMARK.json workload through the real entry
# point: catches bit-rotted flags and verification failures without
# burning CI minutes on measurement. Numbers from this target are
# meaningless.
bench-smoke:
	bash bench/run.sh -smoke

# Build every program under examples/ and run it with a timeout. The
# examples print stats through the public API, so a renamed field or a
# hung database fails here rather than in a reader's terminal. Each run
# takes about a second.
examples:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for d in examples/*/; do \
		e=$$(basename $$d); echo "== examples/$$e"; \
		$(GO) build -o "$$tmp/$$e" ./$$d && timeout 60s "$$tmp/$$e" || { echo "examples/$$e failed"; exit 1; }; \
	done

# Non-test Go lines of the root module (bench/ excluded) — the figure
# CHANGES.md tracks.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs wc -l | tail -1

# What CI runs. Short mode skips the long TPC-C sweeps so the race
# detector pass stays within runner budgets; drop -short locally for
# the full suite. The fuzz targets run with a small budget here — the
# checked-in corpora replay as plain seeds, the extra seconds only probe
# for fresh crashers. Every example program runs once (make examples).
ci: build vet fmt-check bench-build examples test-allocs test-race-internal test-race-readpath test-commit test-sql-prepared
	$(GO) test -race -short ./...
	$(MAKE) fuzz-proto fuzz-row FUZZTIME=10s
