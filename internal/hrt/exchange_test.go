package hrt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"slicehide/internal/core"
	"slicehide/internal/interp"
	"slicehide/internal/vm"
)

// pipePeer is a scripted mux server over net.Pipe: every dial opens a
// fresh pipe, the hello is granted, and every reply-bearing request is
// answered with whatever answer returns (nothing when ok is false).
// Replies leave through their own goroutine, so the peer keeps reading
// while the client's reader is busy.
type pipePeer struct {
	answer func(req Request) (resp Response, ok bool)
}

func (p *pipePeer) dial() (net.Conn, error) {
	client, server := net.Pipe()
	go p.serve(server)
	return client, nil
}

func (p *pipePeer) serve(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	hello, err := ReadRequest(r)
	if err != nil || WriteResponse(conn, Response{Inst: hello.Inst}) != nil {
		return
	}
	out := make(chan muxWrite, 64) // more replies than a test here ever queues
	defer close(out)
	go func() {
		for mw := range out {
			WriteMuxFrame(conn, mw.session, mw.resp)
		}
	}()
	for {
		req, err := ReadRequest(r)
		if err != nil {
			return
		}
		if req.NoReply() {
			continue
		}
		if resp, ok := p.answer(req); ok {
			out <- muxWrite{session: req.Session, resp: resp}
		}
	}
}

// TestExchangeLateReply: the reader hands a reply to its waiter after
// letting go of the connection's lock, so a reply it read just as the
// waiter's timer fired lands in the stream's reply slot after that attempt
// gave up. The slot is reused, so the stream's next exchange must discard
// that late reply by its Seq and wait for its own, while a retry of the
// same seq may take it as its answer.
func TestExchangeLateReply(t *testing.T) {
	var mu sync.Mutex
	withheld := map[uint64]bool{} // sessions whose seq 1 the peer never answers
	peer := &pipePeer{answer: func(req Request) (Response, bool) {
		mu.Lock()
		defer mu.Unlock()
		if req.Seq == 1 && withheld[req.Session] {
			return Response{}, false
		}
		return Response{Seq: req.Seq, Ack: req.Seq, Val: interp.IntV(req.Args[0].I * 10)}, true
	}}
	call := func(v int64) Request {
		return Request{Op: OpCall, Fn: "f", Args: []interp.Value{interp.IntV(v)}}
	}
	late := Response{Seq: 1, Ack: 1, Val: interp.IntV(-1)}
	const timeout = 50 * time.Millisecond

	// The next exchange discards the late reply of the one before.
	mt, err := DialMux(MuxConfig{Dial: peer.dial, Timeout: timeout, Policy: RetryPolicy{Retries: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	s := mt.Stream(1, nil)
	mu.Lock()
	withheld[1] = true
	mu.Unlock()
	if _, err := s.RoundTrip(call(1)); err == nil || !strings.Contains(err.Error(), "exchange timed out") {
		t.Fatalf("seq 1 went unanswered, RoundTrip = %v, want exchange timed out", err)
	}
	deliver(s.slot.ch, late)
	resp, err := s.RoundTrip(call(2))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 2 || resp.Val.I != 20 {
		t.Fatalf("seq 2 got seq %d val %d, want its own reply (seq 2, val 20)", resp.Seq, resp.Val.I)
	}

	// A retry of the timed-out seq accepts the late reply: the peer answers
	// neither the first send nor the resend.
	var s2 *MuxStream
	mt2, err := DialMux(MuxConfig{Dial: peer.dial, Timeout: timeout, Policy: RetryPolicy{
		Retries: 1,
		Sleep:   func(time.Duration) { deliver(s2.slot.ch, late) },
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer mt2.Close()
	s2 = mt2.Stream(2, nil)
	mu.Lock()
	withheld[2] = true
	mu.Unlock()
	resp, err = s2.RoundTrip(call(1))
	if err != nil {
		t.Fatalf("the retry of seq 1 did not take the late reply: %v", err)
	}
	if resp.Val.I != late.Val.I {
		t.Fatalf("the retry of seq 1 got val %d, want the late reply's %d", resp.Val.I, late.Val.I)
	}
	mt2.mu.Lock()
	pending := len(mt2.pending)
	mt2.mu.Unlock()
	if pending != 0 {
		t.Errorf("%d reply registrations left behind after the retry took the late reply", pending)
	}
}

// TestExchangeTimeoutBound: a blocking exchange writes its own frames, and
// the write and the wait for the reply share the attempt's one deadline.
// The peer reads nothing for most of a Timeout, then reads everything and
// answers nothing: RoundTrip must fail with a timeout after about one
// Timeout. A reply wait timed from the end of the write would take almost
// two.
func TestExchangeTimeoutBound(t *testing.T) {
	const timeout = 300 * time.Millisecond
	dial := func() (net.Conn, error) {
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			hello, err := ReadRequest(server)
			if err == nil {
				WriteResponse(server, Response{Inst: hello.Inst})
			}
			time.Sleep(timeout * 4 / 5)
			io.Copy(io.Discard, server)
		}()
		return client, nil
	}
	mt, err := DialMux(MuxConfig{Dial: dial, Timeout: timeout, Policy: RetryPolicy{Retries: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	start := time.Now()
	_, err = mt.Stream(1, nil).RoundTrip(Request{Op: OpCall, Fn: "f"})
	took := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "exchange timed out") {
		t.Fatalf("RoundTrip to a peer that answers nothing = %v, want exchange timed out", err)
	}
	if took < timeout*9/10 || took > timeout*8/5 {
		t.Errorf("RoundTrip failed after %v, want about one Timeout (%v)", took, timeout)
	}
}

// cannedConn is a peer in memory that answers without a server: it grants
// the hello, then answers the last frame of every write with a bare mux
// frame acknowledging it. That frame must be a request without a name or
// arguments (an OpFlush barrier, or a call built that way), so its stamp
// sits at a fixed offset from the end of the write.
type cannedConn struct {
	net.Conn // unused; the methods below are the ones the client calls
	ready    chan int
	out      [64]byte
	unread   []byte
	greeted  bool
}

// bareFrame is the encoded size of a request with no name and no arguments.
const bareFrame = 44

func (c *cannedConn) Write(p []byte) (int, error) {
	b := c.out[:0]
	if !c.greeted {
		c.greeted = true
		b, _ = appendResponse(b, Response{Inst: defaultWindow})
	} else {
		f := p[len(p)-bareFrame:]
		seq := binary.LittleEndian.Uint64(f[10:])
		b = binary.LittleEndian.AppendUint64(b, binary.LittleEndian.Uint64(f[2:]))
		b, _ = appendResponse(b, Response{Seq: seq, Ack: seq})
	}
	c.ready <- len(b)
	return len(p), nil
}

func (c *cannedConn) Read(p []byte) (int, error) {
	if len(c.unread) == 0 {
		n, ok := <-c.ready
		if !ok {
			return 0, io.EOF
		}
		c.unread = c.out[:n]
	}
	n := copy(p, c.unread)
	c.unread = c.unread[n:]
	return n, nil
}

func (c *cannedConn) Close() error                     { return nil }
func (c *cannedConn) SetDeadline(time.Time) error      { return nil }
func (c *cannedConn) SetWriteDeadline(time.Time) error { return nil }

// raceDetector is set by race_test.go in -race builds, where sync.Pool
// drops a quarter of what it is given and pooled encode buffers allocate.
var raceDetector bool

// TestExchangeAllocatesNothing: a blocking exchange reuses its stream's
// reply slot — one channel, one timer — and writes its frames itself, so
// the client's side of a reply-bearing RoundTrip and of a non-empty Flush
// (the caller, the write path and the reader goroutine, against a canned
// peer) allocates nothing once warm.
func TestExchangeAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	conn := &cannedConn{ready: make(chan int, 1)}
	defer close(conn.ready)
	mt := newMux(MuxConfig{Dial: func() (net.Conn, error) { return conn, nil }})
	defer mt.Close()
	s := mt.Stream(9, nil)
	call := Request{Op: OpCall}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.RoundTrip(call); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a reply-bearing RoundTrip allocates %v times, want 0", allocs)
	}
	oneWay := Request{Op: OpCall, Fn: "f", Args: []interp.Value{interp.IntV(1)}}
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			if err := s.Send(oneWay); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("eight sends and their Flush allocate %v times, want 0", allocs)
	}
	if n := s.InFlight(); n != 0 {
		t.Errorf("%d requests still in flight after the last Flush", n)
	}
}

// TestExchangeInlineBesideWriter runs both write paths on one connection at
// once: four one-way streams whose sends the writer goroutine carries,
// four synchronous streams whose exchanges write the queue themselves, and
// a hand replay of a known stamp through Exchange. Every stream's output
// must equal the program's value computed in Go, the server must have
// executed exactly the calls the streams issued, and every replay must
// come from the replay cache.
func TestExchangeInlineBesideWriter(t *testing.T) {
	res := split(t, pipeSrc, core.Spec{Func: "f", Seed: "a"})
	// pipeSrc in Go: f(x, y) sums 2i over i < 3x+y.
	total := 0
	for n := 0; n < 25; n++ {
		a := (n%6)*3 + n%4
		total += a * (a - 1)
	}
	want := strconv.Itoa(total) + "\n"

	server := NewServer(NewRegistry(res))
	ts := &TCPServer{Server: server}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	connCounters := &Counters{}
	mt, err := DialMux(MuxConfig{Addr: addr.String(), Window: 8, Counters: connCounters})
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()

	// The stamp to replay: one enter, answered before the load starts.
	known := mt.Stream(0, nil)
	first, err := known.RoundTrip(Request{Op: OpEnter, Fn: "f"})
	if err != nil {
		t.Fatal(err)
	}
	enters := int64(1)

	const oneWay, rpc = 4, 4
	outputs := make([]string, oneWay+rpc)
	counters := make([]*Counters, oneWay+rpc)
	errs := make(chan error, oneWay+rpc+1)
	var wg sync.WaitGroup
	for i := range outputs {
		counters[i] = &Counters{}
		var hidden interp.HiddenSession
		tr := &Counting{Inner: mt.Stream(0, nil), Counters: counters[i]}
		if i < oneWay {
			hidden = NewAsyncSession(tr)
		} else {
			hidden = &Session{T: tr}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var b strings.Builder
			in := vm.NewMachine(res.Open, interp.Options{
				Out:        &b,
				MaxSteps:   chaosMaxSteps,
				Hidden:     hidden,
				SplitFuncs: res.SplitSet(),
			})
			if err := in.Run(); err != nil {
				errs <- err
				return
			}
			outputs[i] = b.String()
		}(i)
	}
	done := make(chan struct{})
	replays := 0
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			again, err := mt.Exchange(Request{Op: OpEnter, Fn: "f", Session: known.Session(), Seq: 1})
			if err != nil {
				errs <- err
				return
			}
			if again.Inst != first.Inst {
				errs <- errors.New("replayed enter answered inst " + strconv.FormatInt(again.Inst, 10) +
					", want " + strconv.FormatInt(first.Inst, 10))
				return
			}
			replays++
		}
	}()
	wg.Wait()
	<-done
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, out := range outputs {
		if out != want {
			t.Errorf("stream %d printed %q, want %q", i, out, want)
		}
	}
	var calls int64
	for _, c := range counters {
		calls += c.Calls.Load()
		enters += c.Enters.Load()
	}
	stats := server.Stats()
	if stats.Calls != calls || stats.Enters != enters {
		t.Errorf("server executed %d calls and %d enters, the streams issued %d and %d (with %d replays)",
			stats.Calls, stats.Enters, calls, enters, replays)
	}
	if connCounters.MuxFlushes.Load() == 0 {
		t.Error("no flush accounted on the shared connection")
	}
}

// failWriteConn is a connection whose every write fails while reads block
// until it is closed.
type failWriteConn struct{ net.Conn }

var errWriteRefused = errors.New("write refused")

func (c failWriteConn) Write([]byte) (int, error) { return 0, errWriteRefused }

// TestMuxHelloWriteErrorReturned: a hello that cannot be written fails the
// dial with the write's error at once, instead of waiting out the
// handshake deadline for an ack that was never asked for.
func TestMuxHelloWriteErrorReturned(t *testing.T) {
	const timeout = 2 * time.Second
	var peers []net.Conn
	defer func() {
		for _, c := range peers {
			c.Close()
		}
	}()
	dial := func() (net.Conn, error) {
		client, server := net.Pipe()
		peers = append(peers, server)
		return failWriteConn{client}, nil
	}
	start := time.Now()
	_, err := DialMux(MuxConfig{Dial: dial, Timeout: timeout})
	if !errors.Is(err, errWriteRefused) {
		t.Fatalf("DialMux = %v, want the hello's write error", err)
	}
	if took := time.Since(start); took > timeout/2 {
		t.Errorf("DialMux failed after %v, want at once", took)
	}
}
