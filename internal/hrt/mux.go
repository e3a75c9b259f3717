package hrt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"slicehide/internal/obs"
)

// Connection multiplexing: many client sessions share one TCP connection.
//
// One connection per session caps a replica at file-descriptor limits long
// before CPU. Every request already carries its (session, seq) stamp, so
// the wire format needs only two extensions to multiplex:
//
//   - a mux hello (OpMuxHello) opening the connection, carrying the
//     client's requested per-session window; the server answers with a
//     plain response granting a (possibly clamped) window, after which
//     every server→client message is a mux frame — a response prefixed
//     with the session id it belongs to;
//   - an unsolicited per-session window update (RespWindow) the server
//     emits as a session's one-way requests execute, so long pipelined
//     streams prune their in-flight windows without flush barriers.
//
// Requests are unchanged on the wire. Every stream's unwritten frames go
// through one write path per connection that drains them into the shared
// bufio buffer and flushes once per batch — consecutive frames from many
// sessions coalesce into one segment. A blocking exchange runs it itself;
// a writer goroutine runs it for one-way traffic. Flow control is
// per session: a stream whose in-flight window fills blocks (or barriers)
// only itself; the link and every other stream keep moving. The server
// demultiplexes by session stamp onto per-session workers backed by the
// sharded dedup/durability path, so pipelining, resend-rewind, and
// exactly-once semantics hold per session.
//
// This is the only wire path for session traffic. A stream driven through
// RoundTrip alone is the paper's synchronous RPC link; the same stream
// driven through Send/Flush is the pipelined link; many streams on one
// connection is the multiplexed one; FollowOwner's is the fleet client.

// OpMuxHello opens a multiplexed connection. Like OpRepl it lives outside
// the journal record op range (OpEnter..OpFlush), so a mux handshake can
// never masquerade as a replayable record. The hello carries Session 0
// (the handshake belongs to no session, and the fleet router skips it),
// the requested per-session window in Inst, and the protocol version in
// Frag.
const OpMuxHello Op = 10

// muxProtoVersion is the multiplexing protocol version in the hello.
const muxProtoVersion = 1

// maxMuxWindow caps the per-session window a server grants, bounding the
// per-session buffering a client can demand.
const maxMuxWindow = 4096

// defaultWindow is the per-session in-flight window when none is asked for.
const defaultWindow = 64

// muxWorkerIdle is the reaper period of a server-side mux connection: a
// session worker that served nothing across one full period is retired,
// so a long-lived pooled upstream carrying short sessions does not
// accumulate a goroutine and a queue per session it ever saw.
const muxWorkerIdle = 500 * time.Millisecond

// WriteMuxFrame encodes one multiplexed server→client frame — the owning
// session id followed by the response body — as a single Write.
func WriteMuxFrame(w io.Writer, session uint64, resp Response) error {
	bp := wireBufPool.Get().(*[]byte)
	b, err := appendResponse(binary.LittleEndian.AppendUint64((*bp)[:0], session), resp)
	if err == nil {
		_, err = w.Write(b)
	}
	*bp = b
	wireBufPool.Put(bp)
	return err
}

// ReadMuxFrame decodes one multiplexed frame from r.
func ReadMuxFrame(r io.Reader) (uint64, Response, error) {
	d := newWireReader(r)
	session := d.u64()
	resp, err := readResponse(&d)
	return session, resp, err
}

// ---------------------------------------------------------------------------
// Client side

// MuxConfig configures a multiplexed client connection (see DialMux).
type MuxConfig struct {
	// Addr is the hidden server's address (used when Dial is nil).
	Addr string
	// Dial overrides how connections are established; fault-injection
	// tests dial through a proxy or an in-memory pipe.
	Dial func() (net.Conn, error)
	// Timeout is the I/O deadline covering one blocking exchange attempt;
	// default 5s.
	Timeout time.Duration
	// Policy bounds retries and backoff across attempts, shared by every
	// stream on the connection.
	Policy RetryPolicy
	// Window is the requested per-session in-flight window; the server may
	// grant less. Default 64.
	Window int
	// Counters, when set, tallies connection-level traffic: reconnects,
	// true wire volume, and writer coalescing (MuxBatchedFrames per
	// MuxFlushes is the mean coalesce size). Per-stream retries and window
	// stalls land on each stream's own counters (see Stream).
	Counters *Counters
	// Tracer, when set, receives reconnect, retry, window-stall, and
	// resend-rewind events.
	Tracer *obs.Tracer
}

var errTransportClosed = Terminal(errors.New("hrt: transport closed"))

// muxKey routes responses read off a multiplexed connection to the
// exchange waiting for them.
type muxKey struct {
	session uint64
	seq     uint64
}

// MuxTransport is the open-machine side of a multiplexed connection. It
// owns the socket, the writer goroutine for one-way traffic, and the reader
// goroutine; individual sessions attach through Stream, which returns a
// MuxStream implementing the Transport/AsyncTransport contract. All
// transport and stream state is guarded by one mutex — streams are cheap
// bookkeeping, the socket is the contended resource.
//
// Fault tolerance: every request carries its (session, seq) stamp, so on a
// broken link the next blocking exchange re-dials (one hello, shared by
// every stream) and writes each stream's unacknowledged window again; the
// server's dedup layer makes the replay exactly-once per session, and
// RespResend rewinds a single stream's write cursor without disturbing the
// others.
type MuxTransport struct {
	timeout time.Duration
	pacer   *retryPacer
	dial    func() (net.Conn, error)

	counters *Counters
	tracer   *obs.Tracer

	mu   sync.Mutex
	cond *sync.Cond
	// window is the granted per-session window (the configured request
	// until the first hello ack, possibly clamped down by the server).
	window  int
	conn    net.Conn
	w       *bufio.Writer
	dead    chan struct{} // closed when the reader goroutine exits
	streams map[uint64]*MuxStream
	pending map[muxKey]chan Response
	// dirty lists streams with unwritten frames.
	dirty      []*MuxStream
	dialedOnce bool
	closed     bool
}

// DialMux connects a multiplexed client to a hidden-component server. The
// initial dial and hello happen eagerly so configuration errors (including
// a server refusing the hello) surface here; later re-dials happen on
// demand.
func DialMux(cfg MuxConfig) (*MuxTransport, error) {
	if cfg.Dial == nil {
		addr := cfg.Addr
		cfg.Dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	t := newMux(cfg)
	t.mu.Lock()
	err := t.connectLocked()
	t.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("hrt: dial hidden server: %w", err)
	}
	go t.writeLoop()
	return t, nil
}

// newMux returns a transport with no connection and no writer.
func newMux(cfg MuxConfig) *MuxTransport {
	if cfg.Timeout == 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.Window <= 0 {
		cfg.Window = defaultWindow
	}
	t := &MuxTransport{
		timeout:  cfg.Timeout,
		pacer:    newRetryPacer(cfg.Policy),
		dial:     cfg.Dial,
		window:   cfg.Window,
		counters: cfg.Counters,
		tracer:   cfg.Tracer,
		streams:  make(map[uint64]*MuxStream),
		pending:  make(map[muxKey]chan Response),
	}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// Stream attaches a session to the connection, creating it on first use.
// A zero session id picks a fresh random one. counters, when set, tallies
// the stream's own retries, stalls, and one-way/round-trip splits.
func (t *MuxTransport) Stream(session uint64, counters *Counters) *MuxStream {
	if session == 0 {
		session = NewSessionID()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.streams[session]
	if s == nil {
		s = &MuxStream{session: session, counters: counters}
		s.t.Store(t)
		t.streams[session] = s
	}
	return s
}

// connectLocked dials a fresh connection, performs the mux hello
// synchronously, and starts the reader goroutine. A server that refuses
// the hello is a terminal error — retrying cannot change its answer.
// Caller holds t.mu.
func (t *MuxTransport) connectLocked() error {
	conn, err := t.dial()
	if err != nil {
		return err
	}
	var wr io.Writer = conn
	var rd io.Reader = conn
	if t.counters != nil {
		wr = &meterWriter{w: conn, n: &t.counters.WireBytesSent}
		rd = &meterReader{r: conn, n: &t.counters.WireBytesRecv}
	}
	w := bufio.NewWriter(wr)
	r := bufio.NewReader(rd)
	if t.timeout > 0 {
		conn.SetDeadline(time.Now().Add(t.timeout))
	}
	err = WriteRequest(w, Request{Op: OpMuxHello, Inst: int64(t.window), Frag: muxProtoVersion})
	if err == nil {
		err = w.Flush()
	}
	var ack Response
	if err == nil {
		ack, err = ReadResponse(r)
	}
	if err == nil && ack.Err != "" {
		err = Terminal(fmt.Errorf("hrt: mux refused: %s", ack.Err))
	} else if err == nil && (ack.Inst < 1 || ack.Inst > maxMuxWindow) {
		err = Terminal(fmt.Errorf("hrt: mux hello granted invalid window %d", ack.Inst))
	}
	if err != nil {
		conn.Close()
		return err
	}
	conn.SetDeadline(time.Time{})
	if int(ack.Inst) < t.window {
		t.window = int(ack.Inst)
	}
	if t.conn != nil {
		// A re-dial must never orphan a live socket: a connect racing an
		// installed connection closes what it replaces.
		t.conn.Close()
	}
	t.conn, t.w = conn, w
	// A fresh connection has seen nothing: every stream's replay starts
	// after its last acknowledged request.
	for _, s := range t.streams {
		s.wroteSeq = s.acked
		if len(s.inflight) > 0 {
			t.queueLocked(s)
		}
	}
	t.dead = make(chan struct{})
	if t.dialedOnce {
		if t.counters != nil {
			t.counters.Reconnects.Add(1)
		}
		t.tracer.Emit(obs.LevelInfo, "reconnect",
			obs.Int("mux_streams", int64(len(t.streams))), obs.Int("window", int64(t.window)))
	}
	t.dialedOnce = true
	t.cond.Broadcast()
	go t.readLoop(conn, r, t.dead)
	return nil
}

// meterWriter tallies bytes actually written to the wire (coalesced frames
// and retransmissions included): logical sizes live in Counters.BytesSent,
// true volume in WireBytesSent.
type meterWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (m *meterWriter) Write(p []byte) (int, error) {
	n, err := m.w.Write(p)
	m.n.Add(int64(n))
	return n, err
}

// meterReader tallies bytes actually read off the wire.
type meterReader struct {
	r io.Reader
	n *atomic.Int64
}

func (m *meterReader) Read(p []byte) (int, error) {
	n, err := m.r.Read(p)
	m.n.Add(int64(n))
	return n, err
}

// liveConnLocked readies the link for one exchange: it fails terminally
// once the transport (or the asking stream) is closed, and re-dials a
// dropped connection. Caller holds t.mu.
func (t *MuxTransport) liveConnLocked(streamClosed bool) error {
	if t.closed || streamClosed {
		return errTransportClosed
	}
	if t.conn == nil {
		if err := t.connectLocked(); err != nil {
			return fmt.Errorf("hrt: redial hidden server: %w", err)
		}
	}
	return nil
}

// queueLocked lists s among the streams with unwritten frames. Caller
// holds t.mu.
func (t *MuxTransport) queueLocked(s *MuxStream) {
	if !s.queued {
		s.queued = true
		t.dirty = append(t.dirty, s)
	}
}

// writeLoop writes one-way traffic: woken by Send (and by a re-dial), it
// runs the connection's one write path on whatever is queued. It survives
// reconnects and exits only at Close.
func (t *MuxTransport) writeLoop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		for !t.closed && (t.conn == nil || len(t.dirty) == 0) {
			t.cond.Wait()
		}
		if t.closed {
			return
		}
		t.writeQueuedLocked(nil)
	}
}

// writeQueuedLocked is the connection's one write path: it drains every
// dirty stream's unwritten frames, then bare (a stamped one-shot request)
// when set, into the shared bufio buffer and flushes once — frames from
// many sessions coalesce into one segment. A write error drops the
// connection; in-flight windows replay on the next exchange's re-dial.
// Caller holds t.mu across the batch (bounded by the write deadline) with a
// connection installed.
func (t *MuxTransport) writeQueuedLocked(bare *Request) error {
	conn, w := t.conn, t.w
	if t.timeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(t.timeout))
	}
	var frames int64
	var err error
	for err == nil && len(t.dirty) > 0 {
		s := t.dirty[0]
		t.dirty = t.dirty[:copy(t.dirty, t.dirty[1:])]
		s.queued = false
		for _, req := range s.inflight {
			if req.Seq <= s.wroteSeq {
				continue
			}
			if err = WriteRequest(w, req); err != nil {
				break
			}
			s.wroteSeq = req.Seq
			frames++
		}
	}
	if err == nil && bare != nil {
		err = WriteRequest(w, *bare)
		frames++
	}
	if err == nil && frames > 0 {
		err = w.Flush()
	}
	if t.counters != nil && frames > 0 {
		t.counters.MuxBatchedFrames.Add(frames)
		t.counters.MuxFlushes.Add(1)
	}
	if err != nil {
		t.conn, t.w = nil, nil
		conn.Close()
	}
	return err
}

// readLoop decodes mux frames off one connection: every frame prunes its
// stream's in-flight window by the carried ack, window updates stop
// there, and exchange responses are handed to the waiter keyed by
// (session, seq). One scratch word serves every frame's fields.
func (t *MuxTransport) readLoop(conn net.Conn, r *bufio.Reader, dead chan struct{}) {
	defer close(dead)
	scratch := new([8]byte)
	for {
		d := wireReader{r: r, br: r, buf: scratch}
		session := d.u64()
		resp, err := readResponse(&d)
		if err != nil {
			t.dropConn(conn)
			return
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return
		}
		if s := t.streams[session]; s != nil {
			s.pruneLocked(resp.Ack)
		}
		if resp.Flags&RespWindow != 0 && resp.Seq == 0 {
			t.mu.Unlock()
			t.tracer.Emit(obs.LevelDebug, "mux_window_update",
				obs.Uint("session", session), obs.Uint("ack", resp.Ack))
			continue
		}
		ch := t.pending[muxKey{session, resp.Seq}]
		delete(t.pending, muxKey{session, resp.Seq})
		t.mu.Unlock()
		if ch != nil {
			deliver(ch, resp)
		}
	}
}

// deliver puts resp in a reply slot without blocking, displacing the late
// reply of an attempt that gave up.
func deliver(ch chan Response, resp Response) {
	for {
		select {
		case ch <- resp:
			return
		case <-ch:
		}
	}
}

// dropConn discards conn if it is still current, forcing the next
// exchange to re-dial. Whoever uninstalls a connection closes it —
// connectLocked and Close follow the same rule — so each socket is closed
// exactly once however many goroutines notice it failing.
func (t *MuxTransport) dropConn(conn net.Conn) {
	t.mu.Lock()
	current := t.conn == conn
	if current {
		t.conn, t.w = nil, nil
	}
	t.mu.Unlock()
	if current {
		conn.Close()
	}
}

// replySlot is where a blocking exchange waits: the channel the reader
// delivers its reply into and the timer bounding the attempt. A stream
// reuses its own for its one exchange at a time; a reply that lands after
// its attempt gave up stays in ch until the next wait discards it by Seq.
type replySlot struct {
	ch    chan Response
	timer *time.Timer
}

// arm readies the slot for one attempt bounded by d (unbounded if d <= 0).
func (r *replySlot) arm(d time.Duration) {
	if r.ch == nil {
		r.ch = make(chan Response, 1)
	}
	if r.timer == nil && d > 0 {
		r.timer = time.NewTimer(d)
	} else if d > 0 {
		r.timer.Reset(d)
	}
}

// disarm stops the timer and drains a tick it already sent (go.mod's go
// 1.22 keeps the timer channel whose Stop does not drain).
func (r *replySlot) disarm() {
	if r.timer != nil && !r.timer.Stop() {
		select {
		case <-r.timer.C:
		default:
		}
	}
}

// exchangeLocked runs one attempt of a request queued for the write path,
// or of bare: it arms slot, writes the queue itself, and waits until the
// reply to key lands in slot, the connection it was sent on dies, or the
// attempt's timer fires — write and wait share the one timeout. A reply
// with another Seq is the late answer to an attempt that gave up, and is
// discarded. On a failure the pending entry is dropped; a timeout also
// closes the socket so the reader goroutine exits and every stream replays
// its window over the re-dial. Caller holds t.mu with a live connection;
// exchangeLocked releases it.
func (t *MuxTransport) exchangeLocked(key muxKey, slot *replySlot, bare *Request) (Response, error) {
	slot.arm(t.timeout)
	defer slot.disarm()
	t.pending[key] = slot.ch
	conn, dead := t.conn, t.dead
	err := t.writeQueuedLocked(bare)
	t.mu.Unlock()
	if errors.Is(err, os.ErrDeadlineExceeded) {
		err = errors.New("hrt: exchange timed out")
	} else if err != nil {
		err = fmt.Errorf("hrt: connection lost: %w", err)
	}
	var timeout <-chan time.Time
	if t.timeout > 0 {
		timeout = slot.timer.C
	}
	for err == nil {
		select {
		case resp := <-slot.ch:
			if resp.Seq == key.seq {
				return resp, nil
			}
		case <-dead:
			err = errors.New("hrt: connection lost")
		case <-timeout:
			err = errors.New("hrt: exchange timed out")
			t.dropConn(conn)
		}
	}
	t.mu.Lock()
	delete(t.pending, key)
	t.mu.Unlock()
	return Response{}, err
}

// Exchange performs one attempt of a request that already carries its
// (session, seq), without a stream or a retry: it is for replaying a known
// stamp by hand, as the benchmark's recovery check does. Session traffic
// goes through MuxStream.
func (t *MuxTransport) Exchange(req Request) (Response, error) {
	t.mu.Lock()
	if err := t.liveConnLocked(false); err != nil {
		t.mu.Unlock()
		return Response{}, err
	}
	return t.exchangeLocked(muxKey{req.Session, req.Seq}, new(replySlot), &req)
}

// Close shuts the connection and every stream down; subsequent operations
// fail terminally.
func (t *MuxTransport) Close() error {
	t.mu.Lock()
	t.closed = true
	conn := t.conn
	t.conn, t.w = nil, nil
	t.cond.Broadcast()
	t.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// ---------------------------------------------------------------------------
// MuxStream

// MuxStream is one session's view of a multiplexed connection. It
// implements the Transport/AsyncTransport contract — reply-free sends
// coalesce into an ordered in-flight window, reply-bearing exchanges are
// barriers, RespResend rewinds and replays. Its frames share the
// connection's write path with every other stream, and its window
// backpressure (a full in-flight window forces a flush barrier) lands on
// this session alone. It is the only client code that stamps, windows,
// retries and resends requests; like the session it carries, it serves one
// caller at a time.
type MuxStream struct {
	t        atomic.Pointer[MuxTransport] // the connection it rides
	session  uint64
	counters *Counters
	fleet    Fleet // set for a fleet session (FollowOwner)

	// All remaining state is guarded by t's mutex (see lock).
	seq      uint64
	acked    uint64
	wroteSeq uint64
	inflight []Request
	queued   bool
	closed   bool
	home     string // the fleet member that last answered

	slot replySlot // the one caller's, used without t's mutex
}

var _ AsyncTransport = (*MuxStream)(nil)

// lock locks and returns the connection the stream rides. A stream moves
// under the lock of the connection it leaves, so it stays on the returned
// one until that lock is released.
func (s *MuxStream) lock() *MuxTransport {
	for {
		t := s.t.Load()
		t.mu.Lock()
		if s.t.Load() == t {
			return t
		}
		t.mu.Unlock()
	}
}

// InFlight reports the number of unacknowledged requests (for tests).
func (s *MuxStream) InFlight() int {
	t := s.lock()
	defer t.mu.Unlock()
	return len(s.inflight)
}

// pruneLocked drops acknowledged requests from the window, moving the
// survivors down within its backing array (appends keep reusing it) and
// clearing the vacated tail (pruned arguments become unreachable). Caller
// holds t.mu.
func (s *MuxStream) pruneLocked(ack uint64) {
	if ack > s.seq {
		// A malformed ack cannot acknowledge the future; ignore it.
		return
	}
	if ack > s.acked {
		s.acked = ack
	}
	n := 0
	for n < len(s.inflight) && s.inflight[n].Seq <= ack {
		n++
	}
	s.inflight = slices.Delete(s.inflight, 0, n)
}

// Send queues a reply-free request: it is stamped, retained in the
// stream's in-flight window, and handed to the writer goroutine without
// waiting for any acknowledgement. A full window forces an early barrier
// first (WindowStalls) — on this stream only.
func (s *MuxStream) Send(req Request) error {
	t := s.lock()
	if t.closed || s.closed {
		t.mu.Unlock()
		return errTransportClosed
	}
	if len(s.inflight) >= t.window {
		t.mu.Unlock()
		if s.counters != nil {
			s.counters.WindowStalls.Add(1)
		}
		t.tracer.Emit(obs.LevelDebug, "window_stall",
			obs.Uint("session", s.session), obs.Int("window", int64(t.window)))
		if err := s.Flush(); err != nil {
			return err
		}
		t = s.lock()
	}
	s.seq++
	req.Session, req.Seq = s.session, s.seq
	req.Flags |= ReqNoReply
	s.inflight = append(s.inflight, req)
	t.queueLocked(s)
	t.cond.Signal()
	t.mu.Unlock()
	return nil
}

// Flush is the barrier: it blocks until the server has executed every
// in-flight request of this stream, surfacing the first deferred one-way
// error. An empty window returns immediately without touching the link.
func (s *MuxStream) Flush() error {
	resp, err := s.RoundTrip(Request{Op: OpFlush})
	if err == nil && resp.Err != "" {
		err = serverError(resp.Err)
	}
	return err
}

// RoundTrip performs a reply-bearing exchange. It is an implicit barrier
// for this stream: the server executes its queued one-way requests before
// this one, and the response acknowledges them all.
func (s *MuxStream) RoundTrip(req Request) (Response, error) {
	t := s.lock()
	if t.closed || s.closed {
		t.mu.Unlock()
		return Response{}, errTransportClosed
	}
	if req.Op == OpFlush && len(s.inflight) == 0 {
		t.mu.Unlock()
		return Response{}, nil // a barrier over nothing waits for nothing
	}
	s.seq++
	req.Session, req.Seq = s.session, s.seq
	s.inflight = append(s.inflight, req)
	t.mu.Unlock()
	return s.exchange(req)
}

// Close detaches the stream; the connection stays up for the others.
func (s *MuxStream) Close() error {
	t := s.lock()
	s.closed = true
	delete(t.streams, s.session)
	t.mu.Unlock()
	return nil
}

// exchange drives one blocking request to completion, re-dialing,
// resending, and backing off across attempts, bounded by the connection's
// retry policy.
func (s *MuxStream) exchange(req Request) (Response, error) {
	t := s.t.Load()
	return t.pacer.run(s, req, s.counters, t.tracer)
}

// attemptOn is one try of an exchange on the stream's connection: ensure a
// connection, write the stream's window itself, and wait in the stream's
// reply slot for the response matching (session, seq). A RespResend answer
// rewinds this stream's write cursor and resends on the same connection
// without consuming a retry attempt; resend rounds are bounded so a
// misbehaving peer cannot loop the client forever.
func (s *MuxStream) attemptOn(req Request) (Response, error) {
	for resend := 0; ; resend++ {
		t := s.lock()
		if resend > t.window+2 {
			t.mu.Unlock()
			return Response{}, errors.New("hrt: server demanded resend repeatedly without progress")
		}
		if err := t.liveConnLocked(s.closed); err != nil {
			t.mu.Unlock()
			return Response{}, err
		}
		key := muxKey{s.session, req.Seq}
		var bare *Request
		if req.Seq <= s.acked {
			// The reply to this very request landed while no waiter was
			// registered (a timeout raced the response): its ack pruned the
			// frame from the in-flight window and moved the write cursor
			// past it, so no window replay will ever re-send it. Send the
			// bare frame; the server's dedup layer replays the cached
			// response.
			bare = &req
		} else {
			t.queueLocked(s)
		}
		resp, err := t.exchangeLocked(key, &s.slot, bare)
		if err != nil {
			return Response{}, err
		}
		t = s.lock()
		// A late reply accepted from an earlier attempt leaves this
		// attempt's registration behind.
		delete(t.pending, key)
		s.pruneLocked(resp.Ack)
		resend := resp.Flags&RespResend != 0 && resp.Ack < req.Seq
		if resend || ParseOwnerRedirect(resp.Err, "") != nil {
			// The server executed nothing past its ack, refusing a sequence
			// gap or redirecting the session: rewind the write cursor so the
			// window goes out again, now (resend) or at the next attempt.
			s.wroteSeq = min(s.wroteSeq, s.acked)
		} else {
			s.pruneLocked(req.Seq)
		}
		t.mu.Unlock()
		if !resend {
			return resp, nil
		}
		if s.counters != nil {
			s.counters.Retries.Add(1)
		}
		t.tracer.Emit(obs.LevelInfo, "resend_rewind",
			obs.Uint("session", s.session), obs.Uint("seq", req.Seq), obs.Uint("ack", resp.Ack))
	}
}

// ---------------------------------------------------------------------------
// Following the owner across a fleet

// Fleet is what a fleet session's stream follows its owner across
// (cluster.MuxPool): the members ranked for a session, owner first, and
// the shared connection to each, dialed on first use.
type Fleet interface {
	Rank(session uint64) []string
	Upstream(addr string) (*MuxTransport, error)
}

// FollowOwner returns the stream of one fleet session. Each attempt is one
// pass over f, the member that last answered first, so pol's backoff comes
// only between passes; an owner redirect ends a pass and names the next
// one's first member. The stream moves to each member it tries, window
// and all (see DESIGN.md "Fleet composition and failover"). Until its
// first exchange it is parked on a connection that never dials.
func FollowOwner(f Fleet, session uint64, pol RetryPolicy, counters *Counters, tracer *obs.Tracer) *MuxStream {
	s := newMux(MuxConfig{Policy: pol, Tracer: tracer}).Stream(session, counters)
	s.fleet = f
	if rank := f.Rank(s.session); len(rank) > 0 {
		s.home = rank[0]
	}
	return s
}

// attempt is one try of an exchange: on the stream's connection, or for a
// fleet session one pass over the fleet.
func (s *MuxStream) attempt(req Request) (Response, error) {
	if s.fleet == nil {
		return s.attemptOn(req)
	}
	t := s.lock()
	home := s.home
	t.mu.Unlock()
	resp, err := s.attemptAt(home, req)
	if !passOn(err) {
		return resp, err
	}
	rank := s.fleet.Rank(s.session)
	for _, addr := range rank {
		if addr != home {
			if resp, err = s.attemptAt(addr, req); !passOn(err) {
				return resp, err
			}
		}
	}
	return Response{}, fmt.Errorf("hrt: session %d found no live replica among %v: %w", s.session, rank, err)
}

// passOn reports whether err sends a pass on to the next member: a
// retryable failure does, an owner redirect does not.
func passOn(err error) bool {
	var oe *OwnerRedirectError
	return err != nil && Retryable(err) && !errors.As(err, &oe)
}

// attemptAt moves the stream to addr's connection and tries req there; an
// owner redirect comes back as a retryable OwnerRedirectError.
func (s *MuxStream) attemptAt(addr string, req Request) (Response, error) {
	t, err := s.fleet.Upstream(addr)
	if err != nil {
		return Response{}, err
	}
	s.moveTo(t)
	resp, err := s.attemptOn(req)
	if err != nil {
		return Response{}, err
	}
	oe := ParseOwnerRedirect(resp.Err, addr)
	if oe != nil && oe.Owner != "" {
		addr = oe.Owner
	}
	t = s.lock()
	s.home = addr
	t.mu.Unlock()
	if oe != nil {
		return Response{}, oe
	}
	return resp, nil
}

// moveTo leaves the stream's connection and its write queue for t,
// where the next attempt replays the window from acked+1.
func (s *MuxStream) moveTo(t *MuxTransport) {
	old := s.lock()
	if old == t {
		old.mu.Unlock()
		return
	}
	delete(old.streams, s.session)
	if s.queued {
		old.dirty = slices.DeleteFunc(old.dirty, func(d *MuxStream) bool { return d == s })
		s.queued = false
	}
	s.t.Store(t)
	old.mu.Unlock()
	t.mu.Lock()
	t.streams[s.session] = s
	s.wroteSeq = s.acked
	t.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Server side

// muxConnState is the per-connection state the demux read loop, the
// per-session workers, the idle reaper, and the shared response writer
// cooperate through.
type muxConnState struct {
	conn   net.Conn
	respCh chan muxWrite
	// dead flips when any worker or the writer hits a failure that must
	// tear the connection down; everyone else drains without acting.
	dead atomic.Bool
	// mu guards workers, which the demux loop and the reaper share.
	mu         sync.Mutex
	workers    map[uint64]*muxSessionWorker
	wg         sync.WaitGroup // per-session workers and the reaper
	writerDone chan struct{}
}

// muxSessionWorker is one session's in-order queue on a mux connection.
type muxSessionWorker struct {
	ch chan Request
	// pending counts requests dispatched to ch and not yet fully served.
	// The demux loop increments it under st.mu before sending; the worker
	// decrements it after serving. Zero observed under st.mu therefore
	// means the queue is empty and the worker idle, and stays true until
	// the lock is released — the handshake that lets the reaper retire the
	// worker without dropping or reordering a frame.
	pending atomic.Int64
	// idle marks a worker the reaper found with nothing pending; a second
	// consecutive pass retires it, any dispatch in between clears the mark.
	idle bool
}

type muxWrite struct {
	session uint64
	resp    Response
}

// fail severs the connection: the read loop unblocks with an error and
// tears the workers down.
func (st *muxConnState) fail() {
	st.dead.Store(true)
	st.conn.Close()
}

// serveMux switches a serving connection into multiplexed mode after an
// OpMuxHello: the hello is acknowledged with a plain response granting
// the (clamped) per-session window, then every inbound request, read
// through the connection's decoder, is dispatched by session stamp to a
// per-session worker goroutine — so one slow session backpressures only
// itself — and every response leaves as a mux frame through a single
// shared writer goroutine that coalesces bursts into one flush. This loop
// is the only place session requests enter the server.
func (ts *TCPServer) serveMux(conn net.Conn, dec *connDecoder, w *bufio.Writer, hello Request) {
	writeHelloAck := func(resp Response) bool {
		if ts.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(ts.WriteTimeout))
		}
		return WriteResponse(w, resp) == nil && w.Flush() == nil
	}
	if hello.Frag != muxProtoVersion {
		writeHelloAck(Response{Seq: hello.Seq, Err: fmt.Sprintf("hrt: unsupported mux protocol version %d", hello.Frag)})
		return
	}
	window := min(int(hello.Inst), maxMuxWindow)
	if window < 1 {
		window = defaultWindow
	}
	if !writeHelloAck(Response{Seq: hello.Seq, Inst: int64(window)}) {
		return
	}
	ts.muxHellos.Add(1)
	ts.muxConns.Add(1)
	defer ts.muxConns.Add(-1)
	st := &muxConnState{
		conn:       conn,
		respCh:     make(chan muxWrite, 256),
		workers:    make(map[uint64]*muxSessionWorker),
		writerDone: make(chan struct{}),
	}
	go ts.muxWriteLoop(st, w)
	stopReaper := make(chan struct{})
	st.wg.Add(1)
	go ts.muxReapLoop(st, stopReaper)
	defer func() {
		close(stopReaper)
		st.mu.Lock()
		for _, wk := range st.workers {
			close(wk.ch)
		}
		ts.muxStreams.Add(-int64(len(st.workers)))
		st.workers = nil
		st.mu.Unlock()
		st.wg.Wait()
		close(st.respCh)
		<-st.writerDone
	}()
	for {
		if ts.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(ts.ReadTimeout))
		}
		req, err := dec.next()
		if err != nil {
			return // EOF, deadline, severed, or broken connection
		}
		if req.Op == OpRepl || req.Op == OpMuxHello || req.Session == 0 {
			// Protocol violation on an established mux connection. An
			// unstamped request has no (session, seq) for the replay cache,
			// the journal, the router or the replication stream to key it by.
			return
		}
		ts.requests.Add(1)
		st.mu.Lock()
		wk := st.workers[req.Session]
		if wk == nil {
			// The channel capacity exceeds the granted window, so a
			// well-behaved client can never block the demux loop on one
			// session; a client that overruns its window stalls only its
			// own connection.
			wk = &muxSessionWorker{ch: make(chan Request, window+2)}
			st.workers[req.Session] = wk
			ts.muxStreams.Add(1)
			st.wg.Add(1)
			go ts.muxWorker(st, window, wk)
		}
		wk.pending.Add(1)
		wk.idle = false
		st.mu.Unlock()
		wk.ch <- req
	}
}

// muxReapLoop retires session workers that sat idle for a full
// muxWorkerIdle period. MuxStream.Close tells the server nothing, so
// without it a worker, its goroutine and its queue would live until the
// connection closed.
func (ts *TCPServer) muxReapLoop(st *muxConnState, stop <-chan struct{}) {
	defer st.wg.Done()
	tick := time.NewTicker(muxWorkerIdle)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		st.mu.Lock()
		for session, wk := range st.workers {
			if wk.pending.Load() != 0 {
				continue
			}
			if !wk.idle {
				wk.idle = true
				continue
			}
			// Nothing queued, nothing executing, and the demux loop cannot
			// dispatch while we hold st.mu: closing the queue ends the
			// worker, and the session's next request starts a fresh one.
			delete(st.workers, session)
			close(wk.ch)
			ts.muxStreams.Add(-1)
		}
		st.mu.Unlock()
	}
}

// muxWriteLoop is the connection's single response writer: it drains
// every queued frame into the shared bufio buffer and flushes once per
// batch, so responses from many sessions coalesce into one segment.
// The fsync committer releases a batch's workers one at a time, and the
// first reply wakes the writer before the rest are queued: while
// Durability.released counts an unfinished worker, the writer yields a few
// times (bounded, timer-free, like fillBatch) so the batch leaves in one
// write.
func (ts *TCPServer) muxWriteLoop(st *muxConnState, w *bufio.Writer) {
	defer close(st.writerDone)
	for mw := range st.respCh {
		if st.dead.Load() {
			continue // drain so workers never block on a severed connection
		}
		if ts.WriteTimeout > 0 {
			st.conn.SetWriteDeadline(time.Now().Add(ts.WriteTimeout))
		}
		frames := int64(1)
		err := WriteMuxFrame(w, mw.session, mw.resp)
	batch:
		for yields := 4; err == nil; {
			select {
			case more, ok := <-st.respCh:
				if !ok {
					break batch
				}
				err = WriteMuxFrame(w, more.session, more.resp)
				frames++
				continue
			default:
			}
			if yields == 0 || ts.Persist == nil || ts.Persist.released.Load() == 0 {
				break
			}
			yields--
			runtime.Gosched()
		}
		if err == nil {
			err = w.Flush()
		}
		ts.muxFrames.Add(frames)
		ts.muxFlushes.Add(1)
		if err != nil {
			st.fail()
		}
	}
}

// muxWorker serves one session's requests in order: redirects, reply-free
// execution with deferred errors, and reply-bearing exchanges all flow
// through the same dedup/durability path. As a session's one-way requests
// execute, the worker emits a RespWindow update every half-window so the
// client's in-flight window self-prunes without barriers; the update is
// gated on the replication commit gate like any reply, so an acknowledged
// sequence number is never released before its records are on every
// connected follower.
func (ts *TCPServer) muxWorker(st *muxConnState, window int, wk *muxSessionWorker) {
	defer st.wg.Done()
	oneway := 0
	updateEvery := max(window/2, 1)
	for req := range wk.ch {
		if !st.dead.Load() { // else drain remaining frames after a failure
			ts.muxServeOne(st, req, &oneway, updateEvery)
		}
		wk.pending.Add(-1)
	}
}

// muxServeOne dispatches one request of a session. A panic (a codec or
// execution bug hit by an adversarial frame) is counted, traced, and
// severs the connection instead of silently wedging the session's worker.
func (ts *TCPServer) muxServeOne(st *muxConnState, req Request, oneway *int, updateEvery int) {
	var held bool // finished once the reply, if any, is queued
	defer func() {
		ts.Persist.finish(held)
		if recover() != nil {
			ts.notePanic(req)
			st.fail()
		}
	}()
	if resp, redirect := ts.routeRedirect(req); redirect {
		if req.NoReply() {
			// A one-way frame for a session routed elsewhere cannot carry
			// its redirect; drop it and report at the next reply-bearing
			// request, where the in-order semantics surface errors anyway.
			return
		}
		st.respCh <- muxWrite{session: req.Session, resp: resp}
		return
	}
	if req.NoReply() {
		// Reply-free: execute in order via the dedup layer (which defers
		// errors and skips duplicates/gaps) and write nothing back.
		start := monoNow()
		_, held = ts.serve(req)
		ts.Metrics.Observe(req.Op, true, monoNow()-start)
		*oneway++
		if *oneway >= updateEvery {
			*oneway = 0
			// The update acknowledges the dedup layer's high-water mark, NOT
			// req.Seq: after a lost frame the requests behind the gap are
			// silently dropped, and acknowledging their sequence numbers
			// would make the client prune never-executed requests from its
			// in-flight window — a hole no resend could refill.
			ack := ts.dedup.HighWater(req.Session)
			if ack > 0 {
				if ts.Persist != nil {
					ts.Persist.awaitReplicated()
				}
				ts.muxWindowUpdates.Add(1)
				st.respCh <- muxWrite{session: req.Session, resp: Response{Flags: RespWindow, Ack: ack}}
			}
		}
		return
	}
	start := monoNow()
	var resp Response
	resp, held = ts.serve(req)
	ts.Metrics.Observe(req.Op, false, monoNow()-start)
	st.respCh <- muxWrite{session: req.Session, resp: resp}
}
