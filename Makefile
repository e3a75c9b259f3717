# Developer/CI entry points. `make check` is the gate: vet, build, the
# full test suite (including the hrt chaos tests) under the race detector,
# and the quick pipelining smoke run (which also replays the committed
# wire-codec fuzz seeds, since seed corpora run as ordinary tests).

GO ?= go

.PHONY: check vet build cross cfg-once test race bench bench-quick bench-load bench-load-quick bench-cluster bench-cluster-quick fuzz

check: vet build cross cfg-once race bench-quick bench-load-quick bench-cluster-quick

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The journal flushes with fdatasync on Linux and falls back to a full
# fsync behind a build tag elsewhere; cross-building the two packages that
# reach it keeps that fallback compiling (stdlib-only, works offline).
cross:
	GOOS=darwin $(GO) build ./internal/wal ./internal/hrt
	GOOS=windows $(GO) build ./internal/wal

# One CFG per function: outside bench/ (which times the passes alone) the
# only production cfg.Build is the one slicer.Facts builds on first use.
cfg-once:
	@if grep -rn 'cfg\.Build(' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./bench/' | grep -v '^\./internal/slicer/facts\.go:'; then \
		echo 'a non-test file outside bench/ and internal/slicer/facts.go calls cfg.Build; reach the CFG through slicer.FactsOf(f).Flow()' >&2; \
		exit 1; \
	fi

test:
	$(GO) test ./...

# The second line repeats the tests that reach dedup and group-commit
# state from several goroutines at once: one clean -race pass says little
# about an interleaving it did not happen to run.
# The third line does the same for the split side's only shared state, the
# per-function facts built lazily on first use.
# The fourth line repeats the crash matrix of the zero-filled journal
# layout (seeded, no wall-clock waits) and its tail readers, the read-ahead
# window cases (TailScannerWindow, TailScannerOneReadPerWakeup) included.
# The fifth line repeats the replication pump's shared state: the ack
# lift that the ack reader and the pump both drive, the shown table every
# inbound stream and every pump meet in, and the in-process fleets that
# exercise the origin skip end to end.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'GroupCommit|Dedup' ./internal/hrt
	$(GO) test -race -count=10 -run 'SharedFactsConcurrent' ./internal/slicer
	$(GO) test -race -count=3 -run 'Crash|TailScanner|EmptyRecord|JournalChain|ParentWritten' ./internal/wal ./internal/hrt
	$(GO) test -race -count=10 -run 'OriginSkip|Lift|ReplStream' ./internal/cluster

# Full benchmark run; also regenerates the committed machine-readable
# report (kernel, session mode, RTT, wall time, interactions, blocking
# round trips, wire bytes) so perf regressions show up in review diffs.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .
	$(GO) test -run='^TestWriteBenchJSON$$' -bench-json BENCH_hrt.json .

# Short-mode smoke: byte-identical output in sync and pipelined modes and
# pipelined blocking <= sync blocking at test scale, plus the wire fuzz
# seed corpus (F.../seed entries replay under plain `go test`).
bench-quick:
	$(GO) test -short -run='^TestPipelineSmoke$$' -v .
	$(GO) test -short ./internal/hrt ./internal/wal -run='^Fuzz'

# Concurrent-load benchmarks: regenerate the committed throughput report
# (M sessions x K hidden calls over real sockets at 1/4 GOMAXPROCS and
# 1/8 session shards), then the b.RunParallel direct-dispatch pair and
# the wire-codec -benchmem microbenchmarks.
bench-load:
	$(GO) test -run='^TestWriteLoadBenchJSON$$' -bench-load-json BENCH_load.json -timeout 20m .
	$(GO) test -bench='^BenchmarkLoadDirect' -benchmem -run=^$$ .
	$(GO) test -bench='^BenchmarkWire' -benchmem -run=^$$ ./internal/hrt

# Short-mode smoke for the load harness: a small concurrent run through
# the real socket path with synchronous and pipelined sessions, in both
# stripe configurations.
bench-load-quick:
	$(GO) test -short -run='^TestLoadSmoke$$' -v .

# Fleet benchmarks: regenerate the committed cluster scaling report
# (1 -> 2 -> 4 replicating backends, plus the kill-primary failover rows
# with promoted-follower latency) over real sockets and real WAL streams.
bench-cluster:
	$(GO) test -run='^TestWriteClusterBenchJSON$$' -bench-cluster-json BENCH_cluster.json -timeout 20m .

# Short-mode smoke for the fleet: a single backend, a 3-replica fleet, and
# a 3-replica fleet with the busiest primary killed mid-run — all sessions
# must finish with every blocking op accounted for.
bench-cluster-quick:
	$(GO) test -run='^TestClusterSmoke$$' -bench-cluster-quick -v .

# Run the wire-codec and durability-layer fuzzers for a short budget
# each (the journal frame scanner and the journal record decoder face
# crash-mangled files the same way the wire codec faces a hostile peer),
# plus the two execution-engine differential fuzzers (hidden fragments and
# whole open programs, bytecode VM vs the tree-walking oracles: any output,
# error, step-count, or hidden-call-sequence divergence crashes).
fuzz:
	$(GO) test ./internal/hrt -run=^$$ -fuzz=FuzzReadRequest -fuzztime=10s
	$(GO) test ./internal/hrt -run=^$$ -fuzz=FuzzReadResponse -fuzztime=10s
	$(GO) test ./internal/hrt -run=^$$ -fuzz=FuzzReadMuxFrame -fuzztime=10s
	$(GO) test ./internal/hrt -run=^$$ -fuzz=FuzzJournalRecord -fuzztime=10s
	$(GO) test ./internal/hrt -run=^$$ -fuzz=FuzzReplFrame -fuzztime=10s
	$(GO) test ./internal/hrt -run=^$$ -fuzz=FuzzVMvsInterp -fuzztime=30s
	$(GO) test ./internal/hrt -run=^$$ -fuzz=FuzzMachineVsInterp -fuzztime=30s
	$(GO) test ./internal/wal -run=^$$ -fuzz=FuzzScanJournal -fuzztime=10s
