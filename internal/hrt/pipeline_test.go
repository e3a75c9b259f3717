package hrt

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"time"

	"slicehide/internal/core"
	"slicehide/internal/interp"
	"slicehide/internal/vm"
)

// pipeSrc makes many consecutive hidden updates per activation so a
// pipelined stream has something to coalesce.
const pipeSrc = `
func f(x: int, y: int): int {
    var a: int = x * 3 + y;
    var s: int = 0;
    var i: int = 0;
    while (i < a) {
        s = s + i * 2;
        i = i + 1;
    }
    return s;
}
func main() {
    var total: int = 0;
    for (var n: int = 0; n < 25; n++) {
        total = total + f(n % 6, n % 4);
    }
    print(total);
}`

// dialStream dials a mux connection under cfg and attaches one stream to
// it — the whole client side of a single-session link. counters, when
// set, also receives the connection-level tallies (reconnects, wire
// volume). The connection closes with the test.
func dialStream(t *testing.T, cfg MuxConfig, session uint64, counters *Counters) *MuxStream {
	t.Helper()
	cfg.Counters = counters
	mt, err := DialMux(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mt.Close() })
	return mt.Stream(session, counters)
}

// fakeMuxServer accepts mux connections, grants the hello, and hands every
// reply-bearing request to respond, which writes whatever mux frames the
// test wants the client to see. One-way frames are swallowed.
func fakeMuxServer(t *testing.T, respond func(w *bufio.Writer, req Request)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
				hello, err := ReadRequest(r)
				if err != nil || hello.Op != OpMuxHello {
					return
				}
				WriteResponse(w, Response{Inst: hello.Inst})
				w.Flush()
				for {
					req, err := ReadRequest(r)
					if err != nil {
						return
					}
					if req.NoReply() {
						continue
					}
					respond(w, req)
					w.Flush()
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// pipeRun drives the open program over an async session built on tr and
// returns the output.
func pipeRun(t *testing.T, res *core.Result, tr Transport, counters *Counters) string {
	t.Helper()
	as := NewAsyncSession(&Counting{Inner: tr, Counters: counters})
	if as == nil {
		t.Fatal("transport chain is not async-capable")
	}
	var b strings.Builder
	in := vm.NewMachine(res.Open, interp.Options{
		Out:        &b,
		MaxSteps:   chaosMaxSteps,
		Hidden:     as,
		SplitFuncs: res.SplitSet(),
	})
	if err := in.Run(); err != nil {
		t.Fatalf("pipelined run: %v", err)
	}
	return b.String()
}

// TestPipelineTCPMatchesSync is the happy-path acceptance test: one
// stream driven through Send/Flush produces byte-identical output,
// executes every hidden operation exactly once, and blocks for far fewer
// round trips than it performs interactions.
func TestPipelineTCPMatchesSync(t *testing.T) {
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

	counters := &Counters{}
	tr := dialStream(t, MuxConfig{Addr: addr.String()}, 0, counters)

	got := pipeRun(t, res, tr, counters)
	if got != want {
		t.Fatalf("output %q, want %q", got, want)
	}
	stats := server.Stats()
	if stats.Calls != counters.Calls.Load() || stats.Enters != counters.Enters.Load() ||
		stats.Exits != counters.Exits.Load() {
		t.Errorf("exactly-once violated: server %+v, client calls=%d enters=%d exits=%d",
			stats, counters.Calls.Load(), counters.Enters.Load(), counters.Exits.Load())
	}
	if counters.OneWay.Load() == 0 {
		t.Error("no requests went one-way; pipelining is inert")
	}
	if blocking, inter := counters.Blocking(), counters.Interactions(); blocking >= inter {
		t.Errorf("pipelining saved nothing: %d blocking for %d interactions", blocking, inter)
	}
	if counters.WireBytesSent.Load() == 0 || counters.WireBytesRecv.Load() == 0 {
		t.Errorf("wire metering inert: sent=%d recv=%d",
			counters.WireBytesSent.Load(), counters.WireBytesRecv.Load())
	}
}

// TestPipelineGapResend drops one-way frames in flight: the server's dedup
// layer refuses to execute past the sequence gap and demands a resend at
// the next barrier, after which the run must still be byte-identical and
// exactly-once.
func TestPipelineGapResend(t *testing.T) {
	res := split(t, pipeSrc, core.Spec{Func: "f", Seed: "a"})
	want, _, err := RunOriginal(res.Orig, chaosMaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(NewRegistry(res))
	ts := &TCPServer{Server: server, ReadTimeout: 5 * time.Second, WriteTimeout: 5 * time.Second}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	// Drop a handful of early request frames (mostly one-way updates
	// streaming ahead of the first barrier); each loss leaves a sequence
	// gap the server must refuse to execute past. The proxy counts frames
	// in both directions and only an upstream frame can be dropped, so each
	// drop is armed from its trip number until it lands on one.
	dropFrom := []int{3, 5, 11}
	proxy := &FaultProxy{Backend: addr.String()}
	proxy.Script = func(trip int) FaultKind {
		if n := int(proxy.Injected(FaultDropRequest)); n < len(dropFrom) && trip >= dropFrom[n] {
			return FaultDropRequest
		}
		return FaultNone
	}
	paddr, err := proxy.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	counters := &Counters{}
	tr := dialStream(t, MuxConfig{
		Addr:    paddr.String(),
		Timeout: 100 * time.Millisecond,
		Policy: RetryPolicy{
			Retries:     40,
			BackoffBase: time.Millisecond,
			BackoffMax:  8 * time.Millisecond,
			JitterSeed:  3,
		},
	}, 0, counters)

	got := pipeRun(t, res, tr, counters)
	if got != want {
		t.Fatalf("output diverged under dropped frames:\n got %q\nwant %q", got, want)
	}
	stats := server.Stats()
	if stats.Calls != counters.Calls.Load() || stats.Enters != counters.Enters.Load() ||
		stats.Exits != counters.Exits.Load() {
		t.Errorf("exactly-once violated: server %+v, client calls=%d enters=%d exits=%d",
			stats, counters.Calls.Load(), counters.Enters.Load(), counters.Exits.Load())
	}
	if got := proxy.Injected(FaultDropRequest); got != int64(len(dropFrom)) {
		t.Fatalf("dropped %d frames, want %d; the test is vacuous", got, len(dropFrom))
	}
	if counters.Retries.Load() == 0 {
		t.Error("dropped frames never forced a resend")
	}
}

// TestPipelineWindowStall caps the in-flight window so consecutive
// one-way sends force early flush barriers, which must be counted and
// harmless.
func TestPipelineWindowStall(t *testing.T) {
	res := split(t, pipeSrc, core.Spec{Func: "f", Seed: "a"})
	want, _, err := RunOriginal(res.Orig, chaosMaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	ts := &TCPServer{Server: NewServer(NewRegistry(res))}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	counters := &Counters{}
	tr := dialStream(t, MuxConfig{Addr: addr.String(), Window: 2}, 0, counters)

	if got := pipeRun(t, res, tr, counters); got != want {
		t.Fatalf("output %q, want %q", got, want)
	}
	if counters.WindowStalls.Load() == 0 {
		t.Error("a window of 2 never stalled")
	}
}

// TestPipelineMalformedAcks feeds the client responses with unknown
// sequence numbers and acknowledgements from the future; neither may
// wedge the in-flight window or corrupt its pruning.
func TestPipelineMalformedAcks(t *testing.T) {
	addr := fakeMuxServer(t, func(w *bufio.Writer, req Request) {
		// An orphan response nobody is waiting for, then an ack claiming
		// sequence numbers the client never sent.
		WriteMuxFrame(w, req.Session, Response{Seq: req.Seq + 777, Ack: req.Seq + 999})
		WriteMuxFrame(w, req.Session, Response{Seq: req.Seq, Ack: req.Seq + 1000})
	})
	tr := dialStream(t, MuxConfig{
		Addr:    addr,
		Timeout: time.Second,
		Policy:  RetryPolicy{Retries: 2, Sleep: func(time.Duration) {}},
	}, 0, nil)

	for i := 0; i < 3; i++ {
		if err := tr.Send(Request{Op: OpCall, Fn: "f", Frag: i}); err != nil {
			t.Fatal(err)
		}
		if err := tr.Flush(); err != nil {
			t.Fatalf("flush %d under malformed acks: %v", i, err)
		}
		if n := tr.InFlight(); n != 0 {
			t.Fatalf("window wedged after flush %d: %d frames still in flight", i, n)
		}
	}
}

// TestPipelineResendLoopBounded pins the defense against a peer that
// demands resends forever: the client must give up with an error instead
// of looping.
func TestPipelineResendLoopBounded(t *testing.T) {
	addr := fakeMuxServer(t, func(w *bufio.Writer, req Request) {
		WriteMuxFrame(w, req.Session, Response{Seq: req.Seq, Ack: 0, Flags: RespResend})
	})
	tr := dialStream(t, MuxConfig{
		Addr:    addr,
		Window:  4,
		Timeout: time.Second,
		Policy:  RetryPolicy{Retries: 1, Sleep: func(time.Duration) {}},
	}, 0, nil)
	if err := tr.Send(Request{Op: OpCall, Fn: "f"}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err == nil {
		t.Fatal("client kept resending for a peer that never makes progress")
	}
}

// TestPipelineDeferredError pins the one-way error contract: a failing
// reply-free request surfaces at the next barrier, not silently.
func TestPipelineDeferredError(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	ts := &TCPServer{Server: NewServer(NewRegistry(res))}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	tr := dialStream(t, MuxConfig{Addr: addr.String(), Timeout: time.Second}, 0, nil)
	if err := tr.Send(Request{Op: OpCall, Fn: "no-such-function"}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err == nil {
		t.Fatal("one-way execution error was swallowed")
	}
}

// TestAsyncSessionRequiresCapability pins that an async session is built
// over an AsyncTransport: a plain type assertion, no capability probe.
func TestAsyncSessionRequiresCapability(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	if as := NewAsyncSession(&Local{Server: NewServer(NewRegistry(res))}); as == nil {
		t.Error("local transport should be async-capable")
	}
}
