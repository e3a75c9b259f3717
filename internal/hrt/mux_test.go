package hrt

import (
	"bytes"
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

func TestMuxFrameRoundTrip(t *testing.T) {
	resp := Response{Val: interp.IntV(9), Inst: 3, Err: "boom", Seq: 17, Ack: 16, Flags: RespWindow}
	var buf bytes.Buffer
	if err := WriteMuxFrame(&buf, 0xfeedface, resp); err != nil {
		t.Fatal(err)
	}
	session, got, err := ReadMuxFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if session != 0xfeedface || !got.Val.Equal(resp.Val) || got.Inst != 3 || got.Err != "boom" ||
		got.Seq != 17 || got.Ack != 16 || got.Flags != RespWindow {
		t.Errorf("mux frame round trip: session=%#x resp=%+v", session, got)
	}
}

// TestMuxManyStreamsOneConn is the tentpole's happy-path acceptance test:
// many interleaved sessions share one TCP connection, each produces
// byte-identical output, and the server executes every hidden operation
// exactly once across all of them.
func TestMuxManyStreamsOneConn(t *testing.T) {
	res := split(t, pipeSrc, core.Spec{Func: "f", Seed: "a"})
	want, _, err := RunOriginal(res.Orig, chaosMaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(NewRegistry(res))
	ts := &TCPServer{Server: server}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	connCounters := &Counters{}
	mt, err := DialMux(MuxConfig{Addr: addr.String(), Window: 16, Counters: connCounters})
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()

	const streams = 8
	outputs := make([]string, streams)
	counters := make([]*Counters, streams)
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for i := 0; i < streams; i++ {
		counters[i] = &Counters{}
		s := mt.Stream(0, counters[i])
		wg.Add(1)
		go func(i int, s *MuxStream) {
			defer wg.Done()
			as := NewAsyncSession(&Counting{Inner: s, Counters: counters[i]})
			if as == nil {
				errs <- errNotAsync
				return
			}
			var b strings.Builder
			in := vm.NewMachine(res.Open, interp.Options{
				Out:        &b,
				MaxSteps:   chaosMaxSteps,
				Hidden:     as,
				SplitFuncs: res.SplitSet(),
			})
			if err := in.Run(); err != nil {
				errs <- err
				return
			}
			outputs[i] = b.String()
		}(i, s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, out := range outputs {
		if out != want {
			t.Errorf("stream %d output %q, want %q", i, out, want)
		}
	}
	if got := ts.ActiveConns(); got != 1 {
		t.Errorf("streams used %d connections, want 1", got)
	}
	if got := ts.muxConns.Load(); got != 1 {
		t.Errorf("mux_conns gauge %d, want 1", got)
	}
	if got := ts.muxStreams.Load(); got != streams {
		t.Errorf("mux_active_streams gauge %d, want %d", got, streams)
	}
	var calls, enters, exits int64
	for _, c := range counters {
		calls += c.Calls.Load()
		enters += c.Enters.Load()
		exits += c.Exits.Load()
	}
	stats := server.Stats()
	if stats.Calls != calls || stats.Enters != enters || stats.Exits != exits {
		t.Errorf("server executions %+v != summed client counts calls=%d enters=%d exits=%d",
			stats, calls, enters, exits)
	}
	if connCounters.MuxFlushes.Load() == 0 || connCounters.MuxBatchedFrames.Load() < connCounters.MuxFlushes.Load() {
		t.Errorf("writer coalescing not accounted: frames=%d flushes=%d",
			connCounters.MuxBatchedFrames.Load(), connCounters.MuxFlushes.Load())
	}
}

var errNotAsync = Terminal(errStr("mux stream chain is not async-capable"))

type errStr string

func (e errStr) Error() string { return string(e) }

// TestMuxWindowClamp verifies the server clamps an oversized requested
// window and the client adopts the grant.
func TestMuxWindowClamp(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	ts := &TCPServer{Server: NewServer(NewRegistry(res))}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	mt, err := DialMux(MuxConfig{Addr: addr.String(), Window: maxMuxWindow * 10})
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	if got := mt.Window(); got != maxMuxWindow {
		t.Errorf("granted window %d, want clamp to %d", got, maxMuxWindow)
	}
}

// TestMuxReconnectReplaysWindows lets the server's idle deadline sever the
// shared connection mid-session and checks both streams ride through: the
// re-dial replays each stream's unacknowledged window and the dedup layer
// keeps the replay exactly-once.
func TestMuxReconnectReplaysWindows(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	server := NewServer(NewRegistry(res))
	ts := &TCPServer{Server: server, ReadTimeout: 50 * time.Millisecond}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	connCounters := &Counters{}
	mt, err := DialMux(MuxConfig{
		Addr:     addr.String(),
		Timeout:  time.Second,
		Policy:   RetryPolicy{BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond},
		Counters: connCounters,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	sessA := &Session{T: mt.Stream(0, nil)}
	sessB := &Session{T: mt.Stream(0, nil)}
	instA, err := sessA.Enter("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	instB, err := sessB.Enter("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Let the idle deadline sever the shared connection, then keep using
	// both streams: one re-dial (one hello) must revive them all.
	time.Sleep(150 * time.Millisecond)
	if err := sessA.Exit("f", instA); err != nil {
		t.Fatalf("stream A exit after idle disconnect: %v", err)
	}
	if err := sessB.Exit("f", instB); err != nil {
		t.Fatalf("stream B exit after idle disconnect: %v", err)
	}
	if connCounters.Reconnects.Load() == 0 {
		t.Error("expected at least one reconnect after the idle timeout")
	}
}

// TestMuxDroppedOneWayRecovers is the regression test for the window
// update's acknowledgement value: when a one-way frame is lost in flight,
// the frames behind the gap are silently dropped by the dedup layer, and
// the server's unsolicited window updates must NOT acknowledge their
// sequence numbers. Before the fix an update carried the raw seq of the
// last gapped frame, the client pruned the never-executed requests from
// its in-flight window, and the resend protocol looped forever on a hole
// it could no longer refill.
func TestMuxDroppedOneWayRecovers(t *testing.T) {
	res := split(t, pipeSrc, core.Spec{Func: "f", Seed: "a"})
	server := NewServer(NewRegistry(res))
	ts := &TCPServer{Server: server}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	// Drop exactly one request frame, a few trips in so it lands on a
	// one-way in the middle of the pipelined window. (The downstream relay
	// cannot express a request drop, so the first applied drop is always an
	// upstream frame.)
	proxy := &FaultProxy{Backend: addr.String()}
	proxy.Script = func(trip int) FaultKind {
		if trip >= 6 && proxy.Injected(FaultDropRequest) == 0 {
			return FaultDropRequest
		}
		return FaultNone
	}
	paddr, err := proxy.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	mt, err := DialMux(MuxConfig{
		Addr:    paddr.String(),
		Timeout: 250 * time.Millisecond,
		Policy:  RetryPolicy{Retries: 10, BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond},
		Window:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	counters := &Counters{}
	as := NewAsyncSession(&Counting{Inner: mt.Stream(0, counters), Counters: counters})
	if as == nil {
		t.Fatal("mux stream is not async-capable")
	}
	inst, err := as.EnterAsync("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := as.CallOneWay("f", inst, 0, []interp.Value{interp.IntV(1), interp.IntV(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := as.Barrier(); err != nil {
		t.Fatalf("barrier after dropped one-way: %v", err)
	}
	if got := proxy.Injected(FaultDropRequest); got != 1 {
		t.Fatalf("injected %d request drops, want exactly 1", got)
	}
	stats := server.Stats()
	if stats.Calls != counters.Calls.Load() || stats.Enters != counters.Enters.Load() {
		t.Errorf("hidden state not mutated exactly once across the resend: server %+v, client calls=%d enters=%d",
			stats, counters.Calls.Load(), counters.Enters.Load())
	}
}

// TestMuxWindowUpdatesPruneInFlight pins the flow-control frame: a stream
// sending a long run of one-way requests must see its in-flight window
// pruned by the server's unsolicited RespWindow updates — without any
// client-side barrier — so a pipelined stream can run indefinitely.
func TestMuxWindowUpdatesPruneInFlight(t *testing.T) {
	res := split(t, pipeSrc, core.Spec{Func: "f", Seed: "a"})
	ts := &TCPServer{Server: NewServer(NewRegistry(res))}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	mt, err := DialMux(MuxConfig{Addr: addr.String(), Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	counters := &Counters{}
	s := mt.Stream(0, counters)
	as := NewAsyncSession(s)
	if as == nil {
		t.Fatal("mux stream is not async-capable")
	}
	inst, err := as.EnterAsync("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Every half-window of one-ways (4 here) triggers an update; after 20
	// calls the last update acknowledges all but the final frame, so the
	// window drains to at most the unacknowledged tail — with no barrier.
	for i := 0; i < 20; i++ {
		if err := as.CallOneWay("f", inst, 0, []interp.Value{interp.IntV(1), interp.IntV(1)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.InFlight() > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight window never pruned by window updates: %d left", s.InFlight())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ts.muxWindowUpdates.Load() == 0 {
		t.Error("server emitted no window updates")
	}
	if err := as.Barrier(); err != nil {
		t.Fatal(err)
	}
}

// TestMuxServerRetiresIdleWorkers is the regression test for the
// server-side stream leak: MuxStream.Close tells the server nothing, so a
// long-lived connection carrying short sessions used to accumulate one
// worker goroutine and queue per session it ever saw. 200 sequential
// attach→call→Close streams must bring mux_active_streams back down once
// they go idle, and a retired session's next requests must still be served
// in order with hidden and replay state intact.
func TestMuxServerRetiresIdleWorkers(t *testing.T) {
	res := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	initFrag, fetchFrag := stressFrags(t, res)
	server := NewServer(NewRegistry(res))
	ts := &TCPServer{Server: server}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	mt, err := DialMux(MuxConfig{Addr: addr.String()})
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	waitStreams := func(max int64) {
		t.Helper()
		deadline := time.Now().Add(10 * muxWorkerIdle)
		for ts.muxStreams.Load() > max {
			if time.Now().After(deadline) {
				t.Fatalf("mux_active_streams stuck at %d, want <= %d", ts.muxStreams.Load(), max)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// A long-lived session that stays attached across the churn.
	keep := mt.Stream(0, nil)
	sess := &Session{T: keep}
	inst, err := sess.Enter("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Call("f", inst, initFrag, []interp.Value{interp.IntV(41)}); err != nil {
		t.Fatal(err)
	}

	const churn = 200
	for i := 0; i < churn; i++ {
		s := mt.Stream(0, nil)
		short := &Session{T: s}
		in, err := short.Enter("f", 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := short.Exit("f", in); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	if got := ts.muxStreams.Load(); got < 2 {
		t.Fatalf("mux_active_streams = %d right after the churn; workers retired before going idle", got)
	}
	waitStreams(0)

	// The retired long-lived session resumes on a fresh worker: a pipelined
	// burst executes in order against the hidden state it left behind...
	as := NewAsyncSession(keep)
	for _, v := range []int64{7, 8, 9} {
		if err := as.CallOneWay("f", inst, initFrag, []interp.Value{interp.IntV(v)}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := sess.Call("f", inst, fetchFrag, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.I != 9 {
		t.Errorf("fetch after retirement = %d, want 9 (the last of the in-order burst)", got.I)
	}
	// ...and its replay cache survived: re-sending the fetch's stamp is
	// answered from the cache, not executed again.
	calls := server.Stats().Calls
	replay, err := mt.Exchange(Request{Op: OpCall, Fn: "f", Inst: inst, Frag: fetchFrag,
		Session: keep.Session(), Seq: ts.dedup.HighWater(keep.Session())})
	if err != nil {
		t.Fatal(err)
	}
	if replay.Val.I != 9 || server.Stats().Calls != calls {
		t.Errorf("replayed fetch after retirement: val %d (want 9), calls %d (want %d)",
			replay.Val.I, server.Stats().Calls, calls)
	}
	if got := ts.muxStreams.Load(); got != 1 {
		t.Errorf("mux_active_streams = %d with one active session, want 1", got)
	}
}

// panicRouter stands in for a serving-path bug hit by an adversarial frame.
type panicRouter struct{}

func (panicRouter) Route(uint64, bool) (string, bool) { panic("router bug") }

// TestMuxServingPanicIsObservable: a panic while serving a request severs
// that connection (the server stays up), moves hrt_conn_panics_total, and
// emits one conn_panic event naming op/session/seq — never the payload.
func TestMuxServingPanicIsObservable(t *testing.T) {
	const sentinel int64 = 701234567
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	tracer := obs.NewTracer(obs.TracerConfig{Level: obs.LevelDebug})
	reg := obs.NewRegistry()
	ts := &TCPServer{Server: NewServer(NewRegistry(res)), Router: panicRouter{}, Tracer: tracer}
	ts.RegisterMetrics(reg)
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	stream := dialStream(t, MuxConfig{
		Addr:    addr.String(),
		Timeout: time.Second,
		Policy:  RetryPolicy{Retries: -1},
	}, 99, nil)
	_, err = stream.RoundTrip(Request{Op: OpCall, Fn: "f", Args: []interp.Value{interp.IntV(sentinel)}})
	if err == nil {
		t.Fatal("request served by a panicking router")
	}
	deadline := time.Now().Add(2 * time.Second)
	for ts.ActiveConns() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("connection survived a serving panic")
		}
		time.Sleep(time.Millisecond)
	}
	if got := reg.Snapshot().Counters["hrt_conn_panics_total"]; got != 1 {
		t.Errorf("hrt_conn_panics_total = %d, want 1", got)
	}
	var panics int
	needle := strconv.FormatInt(sentinel, 10)
	for _, ev := range tracer.Events() {
		for k, v := range ev.Attrs {
			if strings.Contains(v, needle) {
				t.Errorf("event %q attr %q leaks the argument value: %q", ev.Kind, k, v)
			}
		}
		if ev.Kind != "conn_panic" {
			continue
		}
		panics++
		if ev.Attrs["op"] != "call" || ev.Attrs["session"] != "99" || ev.Attrs["seq"] != "1" {
			t.Errorf("conn_panic attrs = %v, want op=call session=99 seq=1", ev.Attrs)
		}
		if len(ev.Attrs) != 3 {
			t.Errorf("conn_panic carries more than op/session/seq: %v", ev.Attrs)
		}
	}
	if panics != 1 {
		t.Errorf("%d conn_panic events, want 1", panics)
	}
	// The server itself is unharmed: a fresh connection still handshakes.
	mt, err := DialMux(MuxConfig{Addr: addr.String(), Timeout: time.Second})
	if err != nil {
		t.Fatalf("server down after a serving panic: %v", err)
	}
	mt.Close()
}

// Window reports the granted per-session window (for tests).
func (t *MuxTransport) Window() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.window
}

// TestBarrierAndWindowAllocateNothing pins two client paths a pipelined
// session runs per call or per barrier. An error-free barrier allocates
// nothing in its typed-error upgrade. The in-flight window keeps its
// backing array across prunes: a window's worth of sends followed by the
// ack that prunes them allocates nothing once warm, and a partial prune
// leaves no pruned request's arguments reachable behind the survivors.
func TestBarrierAndWindowAllocateNothing(t *testing.T) {
	mt := newMux(MuxConfig{Window: 16})
	s := mt.Stream(5, nil)
	as := NewAsyncSession(s)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := as.Barrier(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("an error-free Barrier allocates %v times, want 0", allocs)
	}

	req := Request{Op: OpCall, Fn: "f", Args: []interp.Value{interp.IntV(1)}}
	fill := func() {
		for len(s.inflight) < mt.window {
			if err := s.Send(req); err != nil {
				t.Fatal(err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		fill()
		mt.mu.Lock()
		s.pruneLocked(s.seq)
		mt.mu.Unlock()
	}); allocs != 0 {
		t.Errorf("a window of sends and its prune allocate %v times, want 0", allocs)
	}
	fill()
	mt.mu.Lock()
	s.pruneLocked(s.seq - 4)
	mt.mu.Unlock()
	if len(s.inflight) != 4 || s.inflight[0].Seq != s.seq-3 {
		t.Fatalf("window after a partial prune: %d requests from seq %d", len(s.inflight), s.inflight[0].Seq)
	}
	for i, r := range s.inflight[len(s.inflight):cap(s.inflight)] {
		if r.Args != nil {
			t.Fatalf("slot %d past the window still holds a pruned request's arguments", len(s.inflight)+i)
		}
	}
}
