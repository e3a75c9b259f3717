package hrt

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"slicehide/internal/core"
	"slicehide/internal/interp"
	"slicehide/internal/vm"
)

func TestWireValueRoundTrip(t *testing.T) {
	values := []interp.Value{
		interp.NullV(),
		interp.IntV(0),
		interp.IntV(-42),
		interp.IntV(1 << 60),
		interp.FloatV(3.14159),
		interp.FloatV(-0.0),
		interp.BoolV(true),
		interp.BoolV(false),
		interp.StrV(""),
		interp.StrV("hello\nworld"),
	}
	var buf bytes.Buffer
	if err := WriteRequest(&buf, Request{Op: OpCall, Args: values}); err != nil {
		t.Fatalf("write %v: %v", values, err)
	}
	got, err := ReadRequest(&buf)
	if err != nil {
		t.Fatalf("read %v: %v", values, err)
	}
	if len(got.Args) != len(values) {
		t.Fatalf("round trip %v -> %v", values, got.Args)
	}
	for i, v := range values {
		if a := got.Args[i]; !a.Equal(v) || a.Kind != v.Kind {
			t.Errorf("round trip %v -> %v", v, a)
		}
	}
}

func TestWireRejectsAggregates(t *testing.T) {
	var buf bytes.Buffer
	bad := interp.ArrV(&interp.ArrayVal{})
	if err := WriteRequest(&buf, Request{Op: OpCall, Args: []interp.Value{bad}}); err == nil {
		t.Fatal("aggregate values must not cross the wire")
	}
}

func TestWireRequestResponseRoundTrip(t *testing.T) {
	req := Request{Op: OpCall, Fn: "Class.method", Inst: 77, Frag: 5,
		Args: []interp.Value{interp.IntV(1), interp.FloatV(2.5), interp.BoolV(true)}}
	var buf bytes.Buffer
	if err := WriteRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != req.Op || got.Fn != req.Fn || got.Inst != req.Inst || got.Frag != req.Frag || len(got.Args) != 3 {
		t.Errorf("request round trip: %+v", got)
	}
	resp := Response{Val: interp.IntV(9), Inst: 3, Err: "boom"}
	buf.Reset()
	if err := WriteResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	gotR, err := ReadResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !gotR.Val.Equal(resp.Val) || gotR.Inst != 3 || gotR.Err != "boom" {
		t.Errorf("response round trip: %+v", gotR)
	}
}

func TestTCPEndToEnd(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	ts := &TCPServer{Server: NewServer(NewRegistry(res))}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	tr := dialStream(t, MuxConfig{Addr: addr.String()}, 0, nil)

	counters := &Counters{}
	var b strings.Builder
	in := vm.NewMachine(res.Open, interp.Options{
		Out:        &b,
		Hidden:     &Session{T: &Counting{Inner: tr, Counters: counters}},
		SplitFuncs: res.SplitSet(),
	})
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	want, _, err := RunOriginal(res.Orig, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Errorf("TCP output %q, want %q", b.String(), want)
	}
	if counters.Interactions() == 0 {
		t.Error("no interactions counted over TCP")
	}
}

func TestTCPServerErrorsPropagate(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	ts := &TCPServer{Server: NewServer(NewRegistry(res))}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	sess := &Session{T: dialStream(t, MuxConfig{Addr: addr.String()}, 0, nil)}
	if _, err := sess.Enter("missing", 0); err == nil {
		t.Error("expected error for unknown function over TCP")
	}
	// The connection must still be usable afterwards.
	inst, err := sess.Enter("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Exit("f", inst); err != nil {
		t.Fatal(err)
	}
}

// TestStreamClosed: a closed stream, and every stream of a closed
// connection, fails terminally instead of touching the link.
func TestStreamClosed(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	ts := &TCPServer{Server: NewServer(NewRegistry(res))}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	mt, err := DialMux(MuxConfig{Addr: addr.String()})
	if err != nil {
		t.Fatal(err)
	}
	closed, open := mt.Stream(0, nil), mt.Stream(0, nil)
	closed.Close()
	if _, err := closed.RoundTrip(Request{Op: OpEnter, Fn: "f"}); err == nil || Retryable(err) {
		t.Errorf("closed stream: err = %v, want terminal", err)
	}
	if _, err := open.RoundTrip(Request{Op: OpEnter, Fn: "f"}); err != nil {
		t.Errorf("sibling of a closed stream: %v", err)
	}
	mt.Close()
	if _, err := open.RoundTrip(Request{Op: OpEnter, Fn: "f"}); err == nil || Retryable(err) {
		t.Errorf("stream of a closed connection: err = %v, want terminal", err)
	}
}

// TestTCPServerClosePromptWithIdleClient is the regression test for the
// Close hang: a client that connects and then sits idle must not keep
// Close blocked in wg.Wait — the server severs tracked connections.
func TestTCPServerClosePromptWithIdleClient(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	ts := &TCPServer{Server: NewServer(NewRegistry(res))}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Wait until the server has registered the connection, so Close
	// really has a live idle conn to terminate.
	deadline := time.Now().Add(2 * time.Second)
	for ts.ActiveConns() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never tracked the connection")
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan error, 1)
	go func() { done <- ts.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with an idle client connected")
	}
	if got := ts.ActiveConns(); got != 0 {
		t.Errorf("connections left after Close: %d", got)
	}
}

// TestTCPServerMaxConns verifies the connection cap: accepts beyond
// MaxConns are closed immediately while the slot is occupied.
func TestTCPServerMaxConns(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	ts := &TCPServer{Server: NewServer(NewRegistry(res)), MaxConns: 1}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	sess := &Session{T: dialStream(t, MuxConfig{Addr: addr.String()}, 0, nil)}
	inst, err := sess.Enter("f", 0)
	if err != nil {
		t.Fatal(err)
	}

	// The second connection is over the cap: the server closes it before
	// answering its hello.
	if second, err := DialMux(MuxConfig{Addr: addr.String(), Timeout: time.Second}); err == nil {
		second.Close()
		t.Error("connection beyond MaxConns was served")
	}
	// The first connection keeps working.
	if err := sess.Exit("f", inst); err != nil {
		t.Fatal(err)
	}
}

// TestTCPServerIdleReadTimeout verifies the per-connection read deadline:
// an idle connection is disconnected, and the client rides through the
// disconnect transparently.
func TestTCPServerIdleReadTimeout(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	ts := &TCPServer{Server: NewServer(NewRegistry(res)), ReadTimeout: 50 * time.Millisecond}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	counters := &Counters{}
	sess := &Session{T: dialStream(t, MuxConfig{
		Addr:    addr.String(),
		Timeout: time.Second,
		Policy:  RetryPolicy{BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond},
	}, 0, counters)}
	inst, err := sess.Enter("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Let the server's idle deadline sever the connection, then keep
	// using the transport: it must re-dial and the dedup'd session must
	// still resolve the activation.
	time.Sleep(150 * time.Millisecond)
	if err := sess.Exit("f", inst); err != nil {
		t.Fatalf("exit after idle disconnect: %v", err)
	}
	if counters.Reconnects.Load() == 0 {
		t.Error("expected at least one reconnect after the idle timeout")
	}
}

// TestTCPExactlyOnceSessionStamping runs a split program over plain TCP
// on a synchronous stream and checks the server executed exactly one
// operation per logical round trip (fault-free baseline of the chaos
// test).
func TestTCPExactlyOnceSessionStamping(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	server := NewServer(NewRegistry(res))
	ts := &TCPServer{Server: server}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	tr := dialStream(t, MuxConfig{Addr: addr.String()}, 0, nil)
	counters := &Counters{}
	var b strings.Builder
	in := vm.NewMachine(res.Open, interp.Options{
		Out:        &b,
		Hidden:     &Session{T: &Counting{Inner: tr, Counters: counters}},
		SplitFuncs: res.SplitSet(),
	})
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	stats := server.Stats()
	if stats.Calls != counters.Calls.Load() || stats.Enters != counters.Enters.Load() || stats.Exits != counters.Exits.Load() {
		t.Errorf("server executions %+v != client logical counts calls=%d enters=%d exits=%d",
			stats, counters.Calls.Load(), counters.Enters.Load(), counters.Exits.Load())
	}
}

// TestFreshConnectionMustOpenMux pins the protocol edge the single wire
// path leaves: a session request as the first frame of a connection — what
// a client from before the per-connection protocol was removed would send
// — gets one actionable error response and a closed socket, never a hang
// and never an execution.
func TestFreshConnectionMustOpenMux(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	server := NewServer(NewRegistry(res))
	ts := &TCPServer{Server: server}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if err := WriteRequest(conn, Request{Op: OpEnter, Fn: "f", Session: 7, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	resp, err := ReadResponse(r)
	if err != nil {
		t.Fatalf("no response to a per-connection request: %v", err)
	}
	if resp.Seq != 1 || !strings.Contains(resp.Err, "multiplexed connection required") {
		t.Errorf("response %+v, want seq 1 and the mux-required error", resp)
	}
	if _, err := r.ReadByte(); err != io.EOF {
		t.Errorf("connection left open after the refusal: %v", err)
	}
	if got := server.Stats().Enters; got != 0 {
		t.Errorf("refused request executed %d times", got)
	}
}

// TestMuxConnectionRejectsHandshakeFrames: OpMuxHello and OpRepl are
// connection-opening frames; inside an established mux connection either
// is a protocol violation that closes it.
func TestMuxConnectionRejectsHandshakeFrames(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	ts := &TCPServer{Server: NewServer(NewRegistry(res))}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	for _, op := range []Op{OpMuxHello, OpRepl} {
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		r := bufio.NewReader(conn)
		if err := WriteRequest(conn, Request{Op: OpMuxHello, Inst: 8, Frag: muxProtoVersion}); err != nil {
			t.Fatal(err)
		}
		if ack, err := ReadResponse(r); err != nil || ack.Err != "" || ack.Inst != 8 {
			t.Fatalf("hello: ack %+v, err %v", ack, err)
		}
		if err := WriteRequest(conn, Request{Op: op, Frag: muxProtoVersion}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadMuxFrame(r); err != io.EOF {
			t.Errorf("%v inside a mux connection: read err = %v, want the connection closed", op, err)
		}
		conn.Close()
	}
}

// TestMuxConnectionRejectsUnstampedRequests: a session request without a
// session stamp has no (session, seq) to be deduplicated, journaled,
// routed or replicated by, so on a mux connection it is a protocol
// violation that closes the connection — it must never execute, least of
// all on a durable server whose journal would not hold it.
func TestMuxConnectionRejectsUnstampedRequests(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	server := NewServer(NewRegistry(res))
	p := NewDurability(DurabilityOptions{Dir: t.TempDir()})
	ts := &TCPServer{Server: server, Persist: p}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	frags := res.Splits["f"].Hidden.Frags
	frag := -1
	for id := range frags {
		if frag < 0 || id < frag {
			frag = id
		}
	}
	args := make([]interp.Value, len(frags[frag].ArgVars))
	for i := range args {
		args[i] = interp.IntV(1)
	}

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	r := bufio.NewReader(conn)
	if err := WriteRequest(conn, Request{Op: OpMuxHello, Inst: 8, Frag: muxProtoVersion}); err != nil {
		t.Fatal(err)
	}
	if ack, err := ReadResponse(r); err != nil || ack.Err != "" {
		t.Fatalf("hello: ack %+v, err %v", ack, err)
	}
	for _, req := range []Request{
		{Op: OpEnter, Fn: "f"},
		{Op: OpCall, Fn: "f", Inst: 1, Frag: frag, Args: args},
	} {
		if err := WriteRequest(conn, req); err != nil {
			break // the server may already have closed the connection
		}
	}
	// The server may close with the call still unread, which the kernel
	// reports as a reset rather than EOF; either way nothing was answered.
	var ne net.Error
	if session, resp, err := ReadMuxFrame(r); err == nil {
		t.Errorf("unstamped request answered (session %d, %+v), want the connection closed", session, resp)
	} else if errors.As(err, &ne) && ne.Timeout() {
		t.Errorf("connection left open: %v", err)
	}
	if got := server.Stats(); got != (ServerStats{}) {
		t.Errorf("unstamped requests executed: %+v", got)
	}
	if _, records := p.CurrentPosition(); records != 0 {
		t.Errorf("journal holds %d records, want 0", records)
	}
}

// TestPingOnlyConnection: a connection may consist of nothing but OpPing
// exchanges, and a server with no fleet attached still acknowledges them —
// the plain liveness probe.
func TestPingOnlyConnection(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	ts := &TCPServer{Server: NewServer(NewRegistry(res))}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	r := bufio.NewReader(conn)
	for i := 0; i < 3; i++ {
		if err := WriteRequest(conn, Request{Op: OpPing, Fn: "probe", Frag: PingSync}); err != nil {
			t.Fatal(err)
		}
		if resp, err := ReadResponse(r); err != nil || resp.Err != "" {
			t.Fatalf("ping %d: resp %+v, err %v", i, resp, err)
		}
	}
	if table, err := GossipExchange(net.DialTimeout, addr.String(), "probe", PingSync, "", time.Second); err != nil || table != "" {
		t.Errorf("GossipExchange against a non-fleet server: table %q, err %v", table, err)
	}
}
