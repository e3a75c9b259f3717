package hrt

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"slicehide/internal/core"
	"slicehide/internal/interp"
	"slicehide/internal/obs"
	"slicehide/internal/vm"
)

// TestMetricsUnderConcurrentLoad hammers a TCP server with concurrent
// pipelined sessions while scraping /metrics and /healthz — the admin
// endpoint must stay consistent (valid JSON, no racing) under load.
// Run with -race.
func TestMetricsUnderConcurrentLoad(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	tracer := obs.NewTracer(obs.TracerConfig{Level: obs.LevelInfo})
	ts := &TCPServer{Server: NewServer(NewRegistry(res)), Tracer: tracer}
	reg := obs.NewRegistry()
	ts.RegisterMetrics(reg)
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	admin := httptest.NewServer(obs.AdminMux(obs.AdminConfig{
		Registry: reg,
		Tracer:   tracer,
		Info:     map[string]string{"component": "hiddend"},
	}))
	defer admin.Close()

	want, _, err := RunOriginal(res.Orig, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/metrics", "/healthz"} {
					resp, err := http.Get(admin.URL + path)
					if err != nil {
						t.Errorf("GET %s: %v", path, err)
						return
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Errorf("read %s: %v", path, err)
						return
					}
					var doc map[string]any
					if err := json.Unmarshal(body, &doc); err != nil {
						t.Errorf("%s not JSON under load: %v", path, err)
						return
					}
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mt, err := DialMux(MuxConfig{Addr: addr.String(), Timeout: 5 * time.Second})
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer mt.Close()
			as := NewAsyncSession(mt.Stream(0, nil))
			var b strings.Builder
			in := vm.NewMachine(res.Open, interp.Options{
				Out:        &b,
				Hidden:     as,
				SplitFuncs: res.SplitSet(),
			})
			if err := in.Run(); err != nil {
				t.Errorf("run: %v", err)
				return
			}
			if b.String() != want {
				t.Errorf("output %q, want %q", b.String(), want)
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapeWG.Wait()

	snap := reg.Snapshot()
	if snap.Counters["hrt_requests_total"] == 0 {
		t.Error("hrt_requests_total stayed zero under load")
	}
	if snap.Gauges["hrt_executed_calls"] == 0 {
		t.Error("hrt_executed_calls gauge stayed zero")
	}
	if _, ok := snap.Gauges["hrt_active_conns"]; !ok {
		t.Error("hrt_active_conns gauge missing")
	}
	if snap.Gauges["hrt_dedup_sessions"] == 0 {
		t.Error("hrt_dedup_sessions gauge stayed zero")
	}
	var observed int64
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "hrt_latency_") {
			observed += h.Count
		}
	}
	if observed == 0 {
		t.Error("no latency observations recorded server-side")
	}
}

// TestInstrumentRedactsHiddenValues runs a split program through the
// instrumented transport with a distinctive argument and asserts the
// trace carries structure (op, fn, seq) but never the hidden values —
// leaking them in telemetry would hand an observer exactly what the §3
// splitting is meant to withhold.
func TestInstrumentRedactsHiddenValues(t *testing.T) {
	// Negative, so f's loop bound a = x*3+y is negative and the run is
	// instant; the digits are distinctive enough to grep the trace for.
	const sentinel int64 = -701234567
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	tracer := obs.NewTracer(obs.TracerConfig{Level: obs.LevelDebug, RingSize: 4096})
	reg := obs.NewRegistry()
	metrics := NewRuntimeMetrics(reg)
	var tr Transport = &Local{Server: NewServer(NewRegistry(res))}
	tr = &Counting{Inner: tr, Counters: &Counters{}, Metrics: metrics, Tracer: tracer}
	in := vm.NewMachine(res.Open, interp.Options{
		Hidden:     &Session{T: tr},
		SplitFuncs: res.SplitSet(),
		MaxSteps:   1_000_000_000,
		Trace:      InterpTracer{T: tracer},
	})
	if _, err := in.Call("f", []interp.Value{interp.IntV(sentinel), interp.IntV(1)}); err != nil {
		t.Fatal(err)
	}

	evs := tracer.Events()
	if len(evs) == 0 {
		t.Fatal("no trace events recorded")
	}
	kinds := map[string]bool{}
	needle := strconv.FormatInt(-sentinel, 10)
	for _, ev := range evs {
		kinds[ev.Kind] = true
		for k, v := range ev.Attrs {
			if strings.Contains(v, needle) {
				t.Fatalf("event %q attr %q leaks hidden value: %q", ev.Kind, k, v)
			}
		}
	}
	for _, want := range []string{"send", "recv", "frag_enter", "frag_exit", "hidden_call"} {
		if !kinds[want] {
			t.Errorf("trace missing %q events (got %v)", want, kinds)
		}
	}
	// The payload attrs must be present but redacted: observability keeps
	// the shape of the conversation, never its contents.
	redacted := false
	for _, ev := range evs {
		if ev.Kind == "send" && ev.Attrs["args"] == obs.Redacted {
			redacted = true
		}
	}
	if !redacted {
		t.Error(`no send event carries args = "[redacted]"`)
	}
	// And the sync-call latency histogram saw the traffic.
	if reg.Snapshot().Histograms[LatencyMetricName(OpCall, false)].Count == 0 {
		t.Error("call latency histogram empty")
	}
}

// TestLatencyMetricNames pins the exported metric-name scheme.
func TestLatencyMetricNames(t *testing.T) {
	cases := map[string]string{
		LatencyMetricName(OpEnter, false): "hrt_latency_enter_sync_ns",
		LatencyMetricName(OpEnter, true):  "hrt_latency_enter_oneway_ns",
		LatencyMetricName(OpCall, true):   "hrt_latency_call_oneway_ns",
		LatencyMetricName(OpExit, false):  "hrt_latency_exit_sync_ns",
		LatencyMetricName(OpFlush, true):  "hrt_latency_flush_ns",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("metric name %q, want %q", got, want)
		}
	}
}
