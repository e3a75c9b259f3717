package main

// The benchmark's contract: workload names, end-to-end metrics with their
// regression bounds, and per-layer metrics. BENCHMARK.json at the repo root
// declares the same lists for the driver; bench_test.go holds the two
// together.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is the default length of one run's timed section.
const runSeconds = 10

var workloadSpecs = []workloadSpec{
	{"split_corpus", "five Table-1 corpora through parse, cut, best-seed split, analysis and bytecode compile; only the split-side packages work, the runtime does none"},
	{"kernel_run", "Table 5 kernels unsplit, split-sync and split-pipelined over a modelled 200us link; the open-side interpreter does over 90% of the work, sockets none"},
	{"serve_stream", "one-way calls with a barrier every 16 on one mux connection; smallest-message firehose where codec, coalescing writer, demux and dedup dominate"},
	{"serve_rpc", "one session, every call reply-bearing on the same mux path; latency-bound, so a hop or linger that buys serve_stream throughput shows here as a loss"},
	{"serve_durable", "4 x nproc sessions, reply-bearing calls against a group-committing fsync journal; journal encode, commit-queue wait and fsync dominate"},
	{"serve_fleet", "three replicating replicas behind a MuxPool with the semi-sync commit gate; follower-ack wait dominates and separates from serve_durable's journal cost"},
}

// Every workload reports every end-to-end metric. What "op" and "p50"
// mean per workload is tabulated in README.md, and so is why the bounds
// are a quarter and not a tenth: a bound holds for all six workloads, and
// on the shared 2-CPU virtual machine this was sized on the noisiest of
// them moves by 10% between calm and busy minutes with no code change.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
}

// Per-layer metrics come from the traced run. A workload that does not
// exercise a layer reports 0 for it.
var perLayerSpecs = []metricSpec{
	// Split side, per full corpus pass (median over traced passes).
	{Name: "split.pass_ms", Unit: "ms", Better: "lower"},
	{Name: "lang.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "lang.types_ms", Unit: "ms", Better: "lower"},
	{Name: "ir.build_ms", Unit: "ms", Better: "lower"},
	{Name: "callgraph.cut_ms", Unit: "ms", Better: "lower"},
	{Name: "core.split_ms", Unit: "ms", Better: "lower"},
	{Name: "complexity.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "vm.compile_ms", Unit: "ms", Better: "lower"},
	// Timed standalone over the functions the cut considered; they run
	// inside callgraph.cut / core.split and are not added to the sum.
	{Name: "cfg.build_ms", Unit: "ms", Better: "lower"},
	{Name: "cfg.dom_ms", Unit: "ms", Better: "lower"},
	{Name: "dataflow.reaching_ms", Unit: "ms", Better: "lower"},
	{Name: "slicer.bestseed_ms", Unit: "ms", Better: "lower"},
	{Name: "ir.stmts", Unit: "count", Better: "lower"},
	{Name: "core.methods_sliced", Unit: "count", Better: "higher"},
	{Name: "slicer.slice_stmts", Unit: "count", Better: "higher"},
	{Name: "core.ilps", Unit: "count", Better: "lower"},
	{Name: "vm.instrs", Unit: "count", Better: "lower"},
	{Name: "split.alloc_mb", Unit: "MB", Better: "lower"},

	// Open side (kernel_run).
	{Name: "interp.steps", Unit: "count", Better: "lower"},
	{Name: "interp.ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "interp.open_ms", Unit: "ms", Better: "lower"},
	{Name: "hrt.interactions", Unit: "count", Better: "lower"},
	{Name: "hrt.blocking_sync", Unit: "count", Better: "lower"},
	{Name: "hrt.blocking_pipe", Unit: "count", Better: "lower"},
	{Name: "hrt.wire_bytes", Unit: "B", Better: "lower"},
	{Name: "hrt.hidden_ms", Unit: "ms", Better: "lower"},
	{Name: "kernel.orig_wall_ms", Unit: "ms", Better: "lower"},
	{Name: "kernel.sync_wall_ms", Unit: "ms", Better: "lower"},
	{Name: "kernel.pipe_wall_ms", Unit: "ms", Better: "lower"},
	{Name: "kernel.javac.orig_ms", Unit: "ms", Better: "lower"},
	{Name: "kernel.javac.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "kernel.javac.pipe_ms", Unit: "ms", Better: "lower"},
	{Name: "kernel.jess.orig_ms", Unit: "ms", Better: "lower"},
	{Name: "kernel.jess.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "kernel.jess.pipe_ms", Unit: "ms", Better: "lower"},
	{Name: "kernel.jasmin.orig_ms", Unit: "ms", Better: "lower"},
	{Name: "kernel.jasmin.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "kernel.jasmin.pipe_ms", Unit: "ms", Better: "lower"},
	{Name: "kernel.bloat.orig_ms", Unit: "ms", Better: "lower"},
	{Name: "kernel.bloat.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "kernel.bloat.pipe_ms", Unit: "ms", Better: "lower"},
	{Name: "table5.overhead_sync_pct", Unit: "%", Better: "lower"},
	{Name: "table5.overhead_pipe_pct", Unit: "%", Better: "lower"},

	// Serve ladder: one goroutine, the same request stream through
	// successively taller stacks; median ns per call.
	{Name: "hrt.server.call_ns", Unit: "ns", Better: "lower"},
	{Name: "hrt.local.roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "hrt.dedup.roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "hrt.wire.req_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "hrt.wire.req_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "hrt.wire.resp_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "hrt.wire.resp_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "hrt.wire.req_bytes", Unit: "B", Better: "lower"},
	{Name: "hrt.wire.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "hrt.mux.rpc_ns", Unit: "ns", Better: "lower"},
	{Name: "hrt.mux.self_ns", Unit: "ns", Better: "lower"},

	// Serve counters read at the boundary.
	{Name: "hrt.mux.frames_per_flush", Unit: "count", Better: "higher"},
	{Name: "hrt.mux.window_stalls", Unit: "count", Better: "lower"},
	{Name: "hrt.mux.wire_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "hrt.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "hrt.rpc_p99_us", Unit: "us", Better: "lower"},

	// Durability.
	{Name: "wal.append_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.fsync_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.fsync_batch16_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "wal.records_per_fsync", Unit: "count", Better: "higher"},
	{Name: "hrt.durable.self_ns", Unit: "ns", Better: "lower"},

	// Fleet.
	{Name: "cluster.single_wal_rpc_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.repl_ack_wait_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.repl_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "cluster.owner_redirects", Unit: "count", Better: "lower"},
	{Name: "cluster.residual_lag_records", Unit: "count", Better: "lower"},
	{Name: "cluster.failover_ms", Unit: "ms", Better: "lower"},

	// Ledger closure, tracing cost, and the machine's noise floor.
	{Name: "ledger.closure_pct", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "noise.spin_ms", Unit: "ms", Better: "lower"},
}

func specByName(specs []metricSpec) map[string]metricSpec {
	m := make(map[string]metricSpec, len(specs))
	for _, s := range specs {
		m[s.Name] = s
	}
	return m
}
