# Developer/CI entry points. `make check` is the gate: vet, build, the
# cross-builds, the one-CFG grep, the test-only-oracle check, the
# one-request-decoder grep, the linked-lines ceiling, and the full test suite (including the
# hrt chaos tests and the load/fleet smoke tests) under the race
# detector. The committed fuzz seed corpora replay as ordinary tests
# under `go test ./...`, so `race` covers them too. Performance is
# measured by `go run ./bench` (see bench/README.md), not by a make target.

GO ?= go

.PHONY: check vet build cross cfg-once oracle-tests-only printer-tests-only vm-layering wire-layering linked-lines test race fuzz

check: vet build cross cfg-once oracle-tests-only printer-tests-only vm-layering wire-layering linked-lines race

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
		echo 'a non-test file outside bench/ and internal/slicer/facts.go calls cfg.Build; reach reaching definitions through slicer.FactsOf(f).Reaching()' >&2; \
		exit 1; \
	fi

# The tree-walkers are test oracles: only _test.go files import
# internal/oracle, so no shipped binary, example or the benchmark links it,
# and it reaches nothing on the execution side, so the internal tests of
# packages vm and hrt can import it without a cycle.
oracle-tests-only:
	@if grep -rln '"slicehide/internal/oracle"' --include='*.go' . | grep -v '_test\.go$$'; then \
		echo 'a non-test file imports internal/oracle; production runs on internal/vm, the walkers are test oracles' >&2; \
		exit 1; \
	fi
	@if $(GO) list -deps ./cmd/... ./examples/... ./bench | grep -x 'slicehide/internal/oracle'; then \
		echo 'a binary, example or the benchmark links internal/oracle' >&2; \
		exit 1; \
	fi
	@if $(GO) list -deps ./internal/oracle | grep -E '^slicehide/internal/(vm|hrt|core)$$'; then \
		echo 'internal/oracle depends on vm, hrt or core; it may import only interp, ir and lang/*' >&2; \
		exit 1; \
	fi

# The AST printer renders syntax trees back to source for the parser's and
# the type checker's tests; nothing shipped prints MiniJ, so only _test.go
# files import internal/lang/ast/astprint and no binary, example or the
# benchmark links it.
printer-tests-only:
	@if grep -rln '"slicehide/internal/lang/ast/astprint"' --include='*.go' . | grep -v '_test\.go$$'; then \
		echo 'a non-test file imports internal/lang/ast/astprint; the AST printer is a test helper' >&2; \
		exit 1; \
	fi
	@if $(GO) list -deps ./cmd/... ./examples/... ./bench | grep -x 'slicehide/internal/lang/ast/astprint'; then \
		echo 'a binary, example or the benchmark links internal/lang/ast/astprint' >&2; \
		exit 1; \
	fi

# Package vm consumes IR, never the language front end, and takes hidden
# components in its own terms (vm.Source), so it depends on none of the
# split-side packages: hrt.NewRegistry is the one adapter from a split.
vm-layering:
	@if $(GO) list -f '{{join .Imports "\n"}}' ./internal/vm | grep '^slicehide/internal/lang'; then \
		echo 'internal/vm imports internal/lang; the VM must consume IR only' >&2; \
		exit 1; \
	fi
	@if $(GO) list -deps ./internal/vm | grep -E '^slicehide/internal/(core|slicer|callgraph|complexity|cfg|dataflow)$$'; then \
		echo 'internal/vm depends on a split-side package; it may reach only interp, ir and what ir imports' >&2; \
		exit 1; \
	fi

# One request decoder per connection: outside wire.go no non-test file in
# internal/hrt calls ReadRequest, so every serving connection reads its
# frames through the connection decoder (in place from the buffered bytes,
# names and argument slabs carried between frames) and the one-shot form
# stays for tests and the benchmark's codec rung.
wire-layering:
	@if grep -n 'ReadRequest(' $$(find internal/hrt -name '*.go' ! -name '*_test.go' ! -name wire.go); then \
		echo 'a non-test file in internal/hrt other than wire.go calls ReadRequest; read connection frames through the connDecoder' >&2; \
		exit 1; \
	fi

# The shipped binaries carry only what they run. linked-lines prints the
# sum of GoFiles line counts (non-test files that survive build
# constraints) over `go list -deps ./cmd/...`, counting only this module's
# slicehide/... packages, and fails above LINKED_LINES_MAX; it also prints
# each binary's own count, which overlap and are not gated. This is the
# measure ROADMAP.md and EXPERIMENTS.md quote: 26,847 before fault
# injection and the random-program generator became test-only and loadtest
# stopped self-hosting fleets, 25,501 before hidden globals and hidden
# fields shared one fallback implementation, 25,242 before the call-graph
# cut reused the CFG's dominator algorithm and reaching definitions were
# looked up by statement, 24,978 before group commit followed -fsync,
# loadtest stopped hosting its own server and Table 5 counted the link on
# a virtual clock, 24,894 before the runtime value became three words and
# the machine's ordered comparisons became interp.Compare, 24,873 before
# origin covers replaced third-party relays while the AST printer and
# test-only helpers moved into test files, 24,868 before the compiled
# hidden program described itself and stopped holding IR, 24,860 before
# hidden state landed by one path (one session-slot claim, one journal
# append, one commit wait, one generation switch) and the session-0 and
# tracker wrappers that only tests called went, 24,714 before serving
# connections read requests through one in-place decoder and every wire
# decoder's first error stuck. The ceiling only goes down: a change that
# lands below it lowers it to the new count.
LINKED_LINES_MAX = 24665

# linked_lines counts the non-test lines of this module that the packages
# matching $(1) link.
linked_lines = $(GO) list -deps -f '{{range .GoFiles}}{{$$.ImportPath}} {{$$.Dir}}/{{.}}{{"\n"}}{{end}}' $(1) | \
	awk '$$1 == "slicehide" || index($$1, "slicehide/") == 1 { print $$2 }' | xargs cat | wc -l | tr -d ' '

linked-lines:
	@for b in hiddend slicehide; do echo "linked non-test lines of cmd/$$b: $$($(call linked_lines,./cmd/$$b))"; done
	@n=$$($(call linked_lines,./cmd/...)); \
	if [ "$$n" -eq 0 ]; then echo 'linked-lines: go list found no files' >&2; exit 1; fi; \
	echo "linked non-test lines: $$n (ceiling $(LINKED_LINES_MAX))"; \
	if [ "$$n" -gt $(LINKED_LINES_MAX) ]; then \
		echo 'the binaries link more lines than LINKED_LINES_MAX; keep test-only code in _test.go files or internal/oracle' >&2; \
		exit 1; \
	fi

test:
	$(GO) test ./...

# The second line repeats the tests that reach dedup and group-commit
# state from several goroutines at once: one clean -race pass says little
# about an interleaving it did not happen to run.
# The third line does the same for the split side's only shared state, the
# per-function facts built lazily on first use, as the slicer and the §3
# analysis each meet them, and for the front end, whose scratch stacks must
# stay per-pass state when programs compile concurrently.
# The fourth line repeats the crash matrix of the zero-filled journal
# layout (seeded, no wall-clock waits) and its tail readers, the read-ahead
# window cases (TailScannerWindow, TailScannerOneReadPerWakeup) included.
# The fifth line repeats the replication pump's shared state: the ack
# lift that the ack reader and the pump both drive, the stamp table, covers
# and pending lists every inbound stream and every pump meet in, and the
# in-process fleets that exercise the origin skip and the origin cover end
# to end.
# The sixth line repeats the one record applier recovery and replication
# share: both orders of landing a journal must agree, a restarted replica
# must keep the newest global write, both engines' effects must recover
# alike, and a replicated record racing a live request of the same stamp
# must land once.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'GroupCommit|Dedup' ./internal/hrt
	$(GO) test -race -count=10 -run 'SharedFactsConcurrent|AnalyzeConcurrent|CompileConcurrent' ./internal/slicer ./internal/complexity ./internal/ir
	$(GO) test -race -count=3 -run 'Crash|TailScanner|EmptyRecord|JournalChain|ParentWritten' ./internal/wal ./internal/hrt
	$(GO) test -race -count=10 -run 'OriginSkip|Cover|Lift|ReplStream' ./internal/cluster
	$(GO) test -race -count=10 -run 'RecoveryMatchesReplication|OlderGlobalAfterRestart|LiveGlobalWriteRecovers|DifferentialDurableEffects|SameStampLandOnce' ./internal/hrt

# Run the wire-codec and durability-layer fuzzers for a short budget
# each (the journal frame scanner and the journal record decoder face
# crash-mangled files the same way the wire codec faces a hostile peer),
# plus the two execution-engine differential fuzzers (hidden fragments and
# whole open programs, bytecode VM vs the tree-walkers of internal/oracle:
# any output, error, step-count, or hidden-call-sequence divergence
# crashes).
fuzz:
	$(GO) test ./internal/hrt -run=^$$ -fuzz=FuzzReadRequest -fuzztime=10s
	$(GO) test ./internal/hrt -run=^$$ -fuzz=FuzzReadResponse -fuzztime=10s
	$(GO) test ./internal/hrt -run=^$$ -fuzz=FuzzReadMuxFrame -fuzztime=10s
	$(GO) test ./internal/hrt -run=^$$ -fuzz=FuzzJournalRecord -fuzztime=10s
	$(GO) test ./internal/hrt -run=^$$ -fuzz=FuzzReplFrame -fuzztime=10s
	$(GO) test ./internal/hrt -run=^$$ -fuzz=FuzzVMvsInterp -fuzztime=30s
	$(GO) test ./internal/hrt -run=^$$ -fuzz=FuzzMachineVsInterp -fuzztime=30s
	$(GO) test ./internal/wal -run=^$$ -fuzz=FuzzScanJournal -fuzztime=10s
