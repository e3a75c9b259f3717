package hrt

import (
	"strings"
	"time"

	"slicehide/internal/interp"
	"slicehide/internal/obs"
)

// Observability glue: the names and shapes of the metrics and trace
// events the runtime exports. The client (slicehide run) and the server
// (hiddend) both build a RuntimeMetrics over their obs.Registry, so the
// two sides of the link report latency under the same metric names:
//
//	hrt_latency_<op>_sync_ns    reply-bearing round trips, per op
//	hrt_latency_<op>_oneway_ns  pipelined one-way sends, per op
//	hrt_latency_flush_ns        barrier waits
//
// Trace events carry request structure (op, session, seq, fn, frag) —
// which the open machine can observe on the wire anyway — but never
// hidden values: argument and result payloads are attached with
// obs.Secret and redacted before they reach the ring or any sink.

// String names the op for metrics and trace events.
func (op Op) String() string {
	switch op {
	case OpEnter:
		return "enter"
	case OpExit:
		return "exit"
	case OpCall:
		return "call"
	case OpFlush:
		return "flush"
	case OpRepl:
		return "repl"
	case OpMuxHello:
		return "mux_hello"
	}
	return "unknown"
}

// LatencyMetricName returns the histogram name for one request kind.
func LatencyMetricName(op Op, oneWay bool) string {
	if op == OpFlush {
		return "hrt_latency_flush_ns"
	}
	mode := "_sync_ns"
	if oneWay {
		mode = "_oneway_ns"
	}
	return "hrt_latency_" + op.String() + mode
}

// RuntimeMetrics is the per-request-kind latency histogram set. Histogram
// handles are resolved once at construction and indexed by [op][mode], so
// Observe on the per-request hot path is two array loads and a lock-free
// histogram update — no registry mutex, no map lookup, no key allocation.
type RuntimeMetrics struct {
	// hists[op][mode]: mode 0 is sync/flush, 1 is one-way. Unregistered
	// slots stay nil; Histogram.Observe is nil-safe.
	hists [OpFlush + 1][2]*obs.Histogram
}

// NewRuntimeMetrics registers the runtime's latency histograms in reg.
func NewRuntimeMetrics(reg *obs.Registry) *RuntimeMetrics {
	m := &RuntimeMetrics{}
	for _, op := range []Op{OpEnter, OpExit, OpCall, OpFlush} {
		m.hists[op][0] = reg.Histogram(LatencyMetricName(op, false))
		if op != OpFlush {
			m.hists[op][1] = reg.Histogram(LatencyMetricName(op, true))
		}
	}
	return m
}

// Observe records one operation's latency.
func (m *RuntimeMetrics) Observe(op Op, oneWay bool, d time.Duration) {
	if m == nil || op > OpFlush {
		return
	}
	mode := 0
	if oneWay && op != OpFlush {
		mode = 1
	}
	m.hists[op][mode].Observe(d)
}

// monoNow is the clock per-request latencies are differences of: time.Since
// of clockBase reads the monotonic clock alone, time.Now the wall clock too.
func monoNow() time.Duration { return time.Since(clockBase) }

var clockBase = time.Now()

// VMMetrics times bytecode fragment executions. The handle set is resolved
// once at registration; when no registry is attached the server carries a
// nil VMMetrics and the hot path pays a single pointer check.
type VMMetrics struct {
	execCall *obs.Histogram
}

// RegisterVMMetrics exports the execution engine's metrics into reg: the
// one-time bytecode compile cost, the per-call VM execution latency, and
// how many pooled temp frames sit idle.
func (s *Server) RegisterVMMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.vmMetrics = &VMMetrics{execCall: reg.Histogram("vm_exec_call_ns")}
	reg.Gauge("vm_compile_ns", func() int64 { return s.reg.Prog.CompileNS })
	reg.Gauge("vm_frames_pooled", func() int64 { return s.frames.Pooled() })
}

// valuesAttr formats a value list for tracing. Always attach it with
// obs.Secret: the values are hidden-state inputs or outputs.
func valuesAttr(key string, vals []interp.Value) obs.Attr {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.String()
	}
	return obs.Secret(key, strings.Join(parts, ","))
}

// InterpTracer adapts an obs.Tracer to the interpreter's trace hook, so
// `slicehide run -trace` records fragment enter/exit and hidden calls
// alongside the transport's events.
type InterpTracer struct {
	T *obs.Tracer
}

var _ interp.Tracer = InterpTracer{}

// FragEnter records a split-function activation opening.
func (it InterpTracer) FragEnter(fn string, inst int64) {
	it.T.Emit(obs.LevelDebug, "frag_enter", obs.Str("fn", fn), obs.Int("inst", inst))
}

// FragExit records a split-function activation closing.
func (it InterpTracer) FragExit(fn string, inst int64) {
	it.T.Emit(obs.LevelDebug, "frag_exit", obs.Str("fn", fn), obs.Int("inst", inst))
}

// HiddenCall records one hidden fragment invocation.
func (it InterpTracer) HiddenCall(fn string, inst int64, frag int, oneWay bool) {
	mode := "sync"
	if oneWay {
		mode = "oneway"
	}
	it.T.Emit(obs.LevelDebug, "hidden_call",
		obs.Str("fn", fn), obs.Int("inst", inst), obs.Int("frag", int64(frag)), obs.Str("mode", mode))
}
