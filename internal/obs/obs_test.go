package obs

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketing(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{1, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},       // ≤2µs
		{2 * time.Microsecond, 1},       // exactly the 2µs bound
		{3 * time.Microsecond, 2},       // ≤4µs
		{1000 * time.Microsecond, 10},   // 1ms → 1024µs bound
		{1025 * time.Microsecond, 11},   // just past the 1024µs bound
		{time.Second, 20},               // ≤ ~1.05s
		{5 * time.Minute, numBuckets},   // overflow
		{100 * time.Minute, numBuckets}, // overflow
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Every bucket's bound must actually contain durations mapped to it.
	for i := 0; i < numBuckets; i++ {
		if got := bucketIndex(BucketBound(i)); got != i {
			t.Errorf("bound of bucket %d maps to bucket %d", i, got)
		}
	}
}

func TestHistogramSnapshot(t *testing.T) {
	h := &Histogram{}
	if s := h.Snapshot(); s.Count != 0 || s.P50Ns != 0 || len(s.Buckets) != 0 {
		t.Errorf("empty snapshot: %+v", s)
	}
	for i := 0; i < 90; i++ {
		h.Observe(10 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(8 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Errorf("count = %d", s.Count)
	}
	if s.MinNs != int64(10*time.Microsecond) || s.MaxNs != int64(8*time.Millisecond) {
		t.Errorf("min/max = %d/%d", s.MinNs, s.MaxNs)
	}
	if s.SumNs != 90*int64(10*time.Microsecond)+10*int64(8*time.Millisecond) {
		t.Errorf("sum = %d", s.SumNs)
	}
	// p50 falls in the 16µs bucket (10µs observations); p99 lands in the
	// tail bucket, clamped to the observed maximum.
	if s.P50Ns != int64(16*time.Microsecond) {
		t.Errorf("p50 = %d", s.P50Ns)
	}
	if s.P99Ns != s.MaxNs {
		t.Errorf("p99 = %d (max %d)", s.P99Ns, s.MaxNs)
	}
	// At 100 samples the p99.9 ceil-rank is the last sample: the maximum.
	if s.P999Ns != s.MaxNs {
		t.Errorf("p99.9 = %d (max %d)", s.P999Ns, s.MaxNs)
	}
	// Quantiles and overflow stay clamped to the observed maximum.
	h2 := &Histogram{}
	h2.Observe(10 * time.Minute)
	if s2 := h2.Snapshot(); s2.P50Ns != s2.MaxNs || s2.Buckets[0].LeNs != -1 {
		t.Errorf("overflow snapshot: %+v", s2)
	}
}

// TestHistogramP999SeparatesFromP99: with 10k observations and a 1-in-
// 1000 slow tail, p99 stays in the fast bucket while p99.9 reaches the
// tail — the separation ROADMAP item 3's SLO reporting exists for.
func TestHistogramP999SeparatesFromP99(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 9980; i++ {
		h.Observe(10 * time.Microsecond)
	}
	for i := 0; i < 20; i++ {
		h.Observe(500 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.P99Ns >= int64(time.Millisecond) {
		t.Errorf("p99 = %v, want inside the fast bucket", time.Duration(s.P99Ns))
	}
	if s.P999Ns < int64(100*time.Millisecond) {
		t.Errorf("p99.9 = %v, want in the slow tail", time.Duration(s.P999Ns))
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i%50+1) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8000 {
		t.Errorf("count = %d", s.Count)
	}
}

func TestTracerRedactsSecrets(t *testing.T) {
	var sink strings.Builder
	tr := NewTracer(TracerConfig{Output: &sink})
	const secret = "hidden-value-1337"
	tr.Emit(LevelInfo, "call", Str("fn", "f"), Secret("args", secret), Int("frag", 2))

	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("events: %d", len(evs))
	}
	if evs[0].Attrs["args"] != Redacted {
		t.Errorf("secret attr = %q, want %q", evs[0].Attrs["args"], Redacted)
	}
	if evs[0].Attrs["fn"] != "f" || evs[0].Attrs["frag"] != "2" {
		t.Errorf("non-secret attrs mangled: %v", evs[0].Attrs)
	}
	if out := sink.String(); strings.Contains(out, secret) {
		t.Errorf("secret leaked into sink: %s", out)
	}
	// The sink emits one valid JSON document per line.
	var ev Event
	if err := json.Unmarshal([]byte(strings.TrimSpace(sink.String())), &ev); err != nil {
		t.Fatalf("sink line not JSON: %v", err)
	}
	if ev.Kind != "call" || ev.Level != "info" {
		t.Errorf("sink event: %+v", ev)
	}

	// RevealSecrets is the explicit debugging escape hatch.
	trr := NewTracer(TracerConfig{RevealSecrets: true})
	trr.Emit(LevelInfo, "call", Secret("args", secret))
	if got := trr.Events()[0].Attrs["args"]; got != secret {
		t.Errorf("revealed attr = %q", got)
	}
}

// TestEmitDisabledLevelAllocatesNothing: hot paths emit debug events with
// integer attributes whether or not anyone records them, so an event below
// the tracer's level (or on a nil tracer) must cost no allocation; the
// integers are formatted only for an event that is recorded, negative and
// wide values included.
func TestEmitDisabledLevelAllocatesNothing(t *testing.T) {
	tr := NewTracer(TracerConfig{Level: LevelInfo})
	var nilTracer *Tracer
	n, u := int64(-123456789), uint64(1)<<63
	allocs := testing.AllocsPerRun(100, func() {
		tr.Emit(LevelDebug, "window_stall", Uint("session", u), Int("window", n))
		nilTracer.Emit(LevelError, "dedup_replay", Uint("session", u), Uint("seq", u))
	})
	if allocs != 0 {
		t.Errorf("a disabled Emit with Int/Uint attributes allocates %v times, want 0", allocs)
	}
	tr.Emit(LevelInfo, "e", Int("n", n), Uint("u", u))
	if got := tr.Events()[0].Attrs; got["n"] != "-123456789" || got["u"] != "9223372036854775808" {
		t.Errorf("recorded integer attributes = %v", got)
	}
}

func TestTracerLevelAndRing(t *testing.T) {
	tr := NewTracer(TracerConfig{Level: LevelWarn, RingSize: 4})
	tr.Emit(LevelDebug, "noise")
	tr.Emit(LevelInfo, "noise")
	if len(tr.Events()) != 0 {
		t.Fatalf("low-level events recorded")
	}
	if tr.Enabled(LevelDebug) || !tr.Enabled(LevelError) {
		t.Error("Enabled disagrees with level")
	}
	for i := int64(0); i < 10; i++ {
		tr.Emit(LevelError, "e", Int("i", i))
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	// Oldest-first, keeping only the newest RingSize events.
	if evs[0].Attrs["i"] != "6" || evs[3].Attrs["i"] != "9" {
		t.Errorf("ring order: %v %v", evs[0].Attrs, evs[3].Attrs)
	}

	// A nil tracer is a safe no-op at every call site.
	var nilTr *Tracer
	nilTr.Emit(LevelError, "x")
	nilTr.SetLevel(LevelDebug)
	if nilTr.Enabled(LevelError) || nilTr.Events() != nil || nilTr.Dropped() != 0 {
		t.Error("nil tracer not inert")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	c.Add(3)
	r.Counter("reqs").Add(2) // same counter by name
	r.Gauge("depth", func() int64 { return 7 })
	r.Histogram("lat").Observe(5 * time.Microsecond)

	s := r.Snapshot()
	if s.Counters["reqs"] != 5 {
		t.Errorf("counter = %d", s.Counters["reqs"])
	}
	if s.Gauges["depth"] != 7 {
		t.Errorf("gauge = %d", s.Gauges["depth"])
	}
	if s.Histograms["lat"].Count != 1 {
		t.Errorf("hist count = %d", s.Histograms["lat"].Count)
	}
	want := []string{"depth", "lat", "reqs"}
	got := r.Names()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("names = %v", got)
	}

	// Nil registry: inert handles, empty snapshot.
	var nr *Registry
	nr.Counter("x").Add(1)
	nr.Gauge("g", func() int64 { return 1 })
	nr.Histogram("h").Observe(time.Millisecond)
	if s := nr.Snapshot(); len(s.Counters) != 0 {
		t.Error("nil registry not inert")
	}
}

func TestAdminMux(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hrt_requests_total").Add(11)
	tr := NewTracer(TracerConfig{})
	tr.Emit(LevelInfo, "boot")
	mux := AdminMux(AdminConfig{Registry: reg, Tracer: tr, Info: map[string]string{"component": "test"}})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return body
	}

	var h Health
	if err := json.Unmarshal(get("/healthz"), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Info["component"] != "test" || h.Goroutines <= 0 {
		t.Errorf("healthz: %+v", h)
	}
	var snap Snapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["hrt_requests_total"] != 11 {
		t.Errorf("metrics: %+v", snap)
	}
	var evs []Event
	if err := json.Unmarshal(get("/trace"), &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Kind != "boot" {
		t.Errorf("trace: %+v", evs)
	}
	if !strings.Contains(string(get("/debug/pprof/cmdline")), "obs") {
		t.Log("pprof cmdline served (content varies by harness)")
	}
}

// Names lists every registered metric name, sorted (for tests and docs).
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for k := range r.counters {
		names = append(names, k)
	}
	for k := range r.gauges {
		names = append(names, k)
	}
	for k := range r.hists {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Dropped reports how many events failed to reach the sink.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// SetLevel changes the minimum recorded level.
func (t *Tracer) SetLevel(l Level) {
	if t != nil {
		t.level.Store(int32(l))
	}
}
