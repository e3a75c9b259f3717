# Developer/CI entry points. `make check` is the gate: gofmt, vet, build, the
# cross-builds, the one-CFG grep, the test-only-oracle check, the
# one-request-decoder grep, the one-client grep, the batch-always grep, the
# linked-lines ceiling, the unreached-function scan, and the full test suite (including the
# hrt chaos tests and the load/fleet smoke tests) under the race
# detector. The committed fuzz seed corpora replay as ordinary tests
# under `go test ./...`, so `race` covers them too. Performance is
# measured by `go run ./bench` (see bench/README.md), not by a make target.

GO ?= go

.PHONY: check fmt vet build cross cfg-once oracle-tests-only printer-tests-only vm-layering wire-layering one-client batch-always linked-lines unreached test race fuzz

check: fmt vet build cross cfg-once oracle-tests-only printer-tests-only vm-layering wire-layering one-client batch-always linked-lines unreached race

# The tree stays gofmt-clean: fmt lists every file gofmt would change and
# fails if there is one.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "$$out"; echo 'these files are not gofmt-clean; run gofmt -w on them' >&2; \
		exit 1; \
	fi

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

# One exactly-once client: hrt.MuxStream is the only client code that
# stamps, windows, retries and resends requests, a fleet session's stream
# included. Outside internal/hrt and bench/ no non-test file calls
# MuxTransport.Exchange, the one-shot attempt the benchmark's recovery
# check replays a known stamp with, and no non-test file declares a Retry
# type (the in-process chaos tests keep theirs in internal/hrt/fault_test.go).
one-client:
	@if grep -rn '\.Exchange(' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./internal/hrt/' | grep -v '^\./bench/'; then \
		echo 'a non-test file outside internal/hrt and bench/ calls Exchange; session traffic goes through hrt.MuxStream (cluster.MuxPool.SessionTransport for a fleet)' >&2; \
		exit 1; \
	fi
	@if grep -rnE '^type Retry[[:space:]]' --include='*.go' . | grep -v '_test\.go:'; then \
		echo 'a non-test file declares type Retry; hrt.MuxStream is the one client that stamps and retries' >&2; \
		exit 1; \
	fi

# Every split batches: merging adjacent non-leaking hidden calls is the
# splitter's last step, not an option, so no non-test file names
# BatchCalls. The unbatched split is a test reference only
# (internal/core/export_test.go).
batch-always:
	@if grep -rn 'BatchCalls' --include='*.go' . | grep -v '_test\.go:'; then \
		echo 'a non-test file names BatchCalls; every split batches, and the unbatched split is internal/core test code' >&2; \
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
# decoder's first error stuck, 24,665 before a fleet session became a
# MuxStream that follows its owner and the Retry transport and the async
# capability probe left the shipped code, 24,645 before replicated applies
# stopped waking the replication pumps and a program with hidden globals
# got one owner, paid for by moving helpers only tests call into test
# files, 24,642 before cluster.Group kept one record per peer and decided
# readiness in one function while snapshots began to carry the globals
# guard, 24,641 before a session's in-flight slot became a flag and
# per-request latencies read the monotonic clock alone, paid for by
# simplifying internal/obs, 24,638 before the front end lexed bytes and
# took its nodes from per-pass blocks while connection decoders interned
# component names, paid for by one positioned error type for lexer,
# parser and checker, one type resolver for checker and builder, and a
# direct ast.HasCall, 24,637 before the machine compared ints inline,
# fused a loop's back-edge and kept int arrays unboxed while the parser
# began returning lexical errors, paid for by moving EvalBinOp into the
# oracle and the opcode names into a test file, by interp.NewArray taking
# the array-size checks and by one predicate-hiding helper in the
# splitter, 24,634 before every split batched and a merged run replaced
# the fragments it merged, paid for by one statement search and one
# expression search in ir (AnyStmt, AnyExpr) that the splitter's walkers
# share, 24,633 before recovery read the data directory with
# replication's readers (one journal-frame decoder, wal.TailScanner, and
# one newest-snapshot search, Durability.NewestSnapshot) and the -split
# and peer lists each got one parser, 24,569 before the functions only
# tests call left the linked files (make unreached keeps them out), which
# also paid for the recovery discard report. The ceiling only goes down: a
# change that lands below it lowers it to the new count.
LINKED_LINES_MAX = 24532

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

# Shipped code is code a binary runs: unreached builds both binaries with
# inlining off and fails on any function declared in a package they link
# that neither binary's symbol table holds, unless
# internal/tools/unreached/allow.txt names it with the reason it lives
# (today: what bench/, the root bench_test.go and examples/ call). A main
# package's functions must be in the binary built from it. Marker methods
# (unexported, empty, named *Node) are exempt by rule, and a generic counts
# as linked through any instantiation. A function only tests call belongs
# in a _test.go file (export_test.go for a seam another package's tests
# set). An entry a binary links or that no longer exists fails too, so the
# committed list is exact and only shrinks. This is the rule; the
# LINKED_LINES_MAX ceiling above is the older proxy for it.
unreached:
	$(GO) run ./internal/tools/unreached

test:
	$(GO) test ./...

# The second line repeats the tests that reach dedup and group-commit
# state from several goroutines at once, live requests and replicated
# landings contending for one session's slot among them: one clean -race
# pass says little about an interleaving it did not happen to run. The
# group commit's reply flush is among them: one batch's replies leave the
# server in one write, and the count of released records the reply writer
# waits on returns to zero on every path a request can end by. It
# also repeats the client's two write paths on one connection: blocking
# exchanges that write the queue themselves beside the writer goroutine's
# one-way traffic, a late reply left in a reused reply slot, and the one
# deadline an attempt's write and wait share.
# The third line does the same for the split side's only shared state, the
# per-function facts built lazily on first use, as the slicer and the §3
# analysis each meet them, and for the front end, whose scratch stacks and
# node blocks (the parser's and the IR builder's slabs) must stay per-pass
# state when programs compile concurrently.
# The fourth line repeats the crash matrix of the zero-filled journal
# layout (seeded, no wall-clock waits) and its tail readers, the read-ahead
# window cases (TailScannerWindow, TailScannerOneReadPerWakeup) included,
# and a tip journal whose damaged header must refuse recovery rather than
# read as empty.
# The fifth line repeats the replication pump's shared state: the ack
# lift that the ack reader and the pump both drive, the stamp table, covers
# and pending lists every inbound stream and every pump meet in, and the
# in-process fleets that exercise the origin skip and the origin cover end
# to end, the pooled client streams that move, window and all, between
# the pool's connections while their readers and writers run, the pump
# wake rule (applied records wake no pump below the bound; a commit gate
# and a lag reading wake the pumps for them), the one owner of a program
# with hidden globals, and the readiness verdict.
# The sixth line repeats the one record applier recovery and replication
# share: both orders of landing a journal must agree, a replica restarted
# from its journal or from a snapshot must keep the newest global write,
# both engines' effects must recover alike, a replicated record racing a
# live request of the same stamp must land once, and a direct append
# counts in journal order.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'GroupCommit|Dedup|Exchange' ./internal/hrt
	$(GO) test -race -count=10 -run 'SharedFactsConcurrent|AnalyzeConcurrent|CompileConcurrent' ./internal/slicer ./internal/complexity ./internal/ir
	$(GO) test -race -count=3 -run 'Crash|TailScanner|EmptyRecord|JournalChain|ParentWritten' ./internal/wal ./internal/hrt
	$(GO) test -race -count=10 -run 'OriginSkip|Cover|Lift|ReplStream|MuxPool|PumpWake|GlobalsLinearizable|Readiness' ./internal/cluster
	$(GO) test -race -count=10 -run 'RecoveryMatchesReplication|OlderGlobalAfter|LiveGlobalWriteRecovers|DifferentialDurableEffects|SameStampLandOnce|DirectAppendCountsInJournalOrder' ./internal/hrt

# Run the wire-codec and durability-layer fuzzers for a short budget
# each (the journal frame scanner and the journal record decoder face
# crash-mangled files the same way the wire codec faces a hostile peer;
# FuzzScanJournal drives wal.TailScanner, the one frame decoder, which
# recovery and the replication pump both read the journal with),
# plus the two execution-engine differential fuzzers (hidden fragments and
# whole open programs, bytecode VM vs the tree-walkers of internal/oracle:
# any output, error, step-count, or hidden-call-sequence divergence
# crashes), the two front-end fuzzers (the byte scanner against the
# rune scanner it replaced, kept in lexer/oracle_test.go; parse, print and
# reparse), and FuzzSplit (any program the front end accepts, every
# function with a seed split: output and error text must not change, sync
# or pipelined, and no fragment may be orphaned).
fuzz:
	$(GO) test ./internal/hrt -run=^$$ -fuzz=FuzzReadRequest -fuzztime=10s
	$(GO) test ./internal/hrt -run=^$$ -fuzz=FuzzReadResponse -fuzztime=10s
	$(GO) test ./internal/hrt -run=^$$ -fuzz=FuzzReadMuxFrame -fuzztime=10s
	$(GO) test ./internal/hrt -run=^$$ -fuzz=FuzzJournalRecord -fuzztime=10s
	$(GO) test ./internal/hrt -run=^$$ -fuzz=FuzzReplFrame -fuzztime=10s
	$(GO) test ./internal/hrt -run=^$$ -fuzz=FuzzVMvsInterp -fuzztime=30s
	$(GO) test ./internal/hrt -run=^$$ -fuzz=FuzzMachineVsInterp -fuzztime=30s
	$(GO) test ./internal/wal -run=^$$ -fuzz=FuzzScanJournal -fuzztime=10s
	$(GO) test ./internal/lang/lexer -run=^$$ -fuzz=FuzzLexer -fuzztime=10s
	$(GO) test ./internal/lang/parser -run=^$$ -fuzz=FuzzParse -fuzztime=10s
	$(GO) test ./internal/core -run=^$$ -fuzz=FuzzSplit -fuzztime=30s
