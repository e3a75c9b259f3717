package hrt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
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
// Requests are unchanged on the wire. The client runs a single writer
// goroutine per connection that drains every stream's unwritten frames
// into the shared bufio buffer and flushes once per batch — consecutive
// frames from many sessions coalesce into one segment. Flow control is
// per session: a stream whose in-flight window fills blocks (or barriers)
// only itself; the link and every other stream keep moving. The server
// demultiplexes by session stamp onto per-session workers backed by the
// sharded dedup/durability path, so pipelining, resend-rewind, and
// exactly-once semantics hold per session.
//
// This is the only wire path for session traffic. A stream driven through
// RoundTrip alone is the paper's synchronous RPC link; the same stream
// driven through Send/Flush is the pipelined link; many streams on one
// connection is the multiplexed one.

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
	bp := getWireBuf()
	b := binary.LittleEndian.AppendUint64((*bp)[:0], session)
	b, err := appendResponse(b, resp)
	if err != nil {
		*bp = b
		putWireBuf(bp)
		return err
	}
	_, err = w.Write(b)
	*bp = b
	putWireBuf(bp)
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
// owns the socket, the shared writer goroutine, and the reader goroutine;
// individual sessions attach through Stream, which returns a MuxStream
// implementing the Transport/AsyncTransport contract. All transport and
// stream state is guarded by one mutex — streams are cheap bookkeeping,
// the socket is the contended resource.
//
// Fault tolerance: every request carries its (session, seq) stamp, so on a
// broken link the next blocking exchange re-dials (one hello, shared by
// every stream) and the writer replays each stream's unacknowledged
// window; the server's dedup layer makes the replay exactly-once per
// session, and RespResend rewinds a single stream's write cursor without
// disturbing the others.
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
	// dirty lists streams with unwritten frames for the writer goroutine;
	// loose holds pre-stamped one-shot requests queued via Exchange.
	dirty      []*MuxStream
	loose      []Request
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
	t.mu.Lock()
	err := t.connectLocked()
	t.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("hrt: dial hidden server: %w", err)
	}
	go t.writeLoop()
	return t, nil
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
		s = &MuxStream{t: t, session: session, counters: counters}
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
	hello := Request{Op: OpMuxHello, Inst: int64(t.window), Frag: muxProtoVersion}
	if err := WriteRequest(w, hello); err == nil {
		err = w.Flush()
	}
	if err != nil {
		conn.Close()
		return err
	}
	ack, err := ReadResponse(r)
	if err != nil {
		conn.Close()
		return err
	}
	if ack.Err != "" {
		conn.Close()
		return Terminal(fmt.Errorf("hrt: mux refused: %s", ack.Err))
	}
	if ack.Inst < 1 || ack.Inst > maxMuxWindow {
		conn.Close()
		return Terminal(fmt.Errorf("hrt: mux hello granted invalid window %d", ack.Inst))
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
			t.markDirtyLocked(s)
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

// markDirtyLocked queues s for the writer goroutine. Caller holds t.mu.
func (t *MuxTransport) markDirtyLocked(s *MuxStream) {
	if !s.queued {
		s.queued = true
		t.dirty = append(t.dirty, s)
	}
	t.cond.Signal()
}

// writeLoop is the connection's single writer: it drains every dirty
// stream's unwritten frames and every loose one-shot request into the
// shared bufio buffer, then flushes once — frames from many sessions
// coalesce into one segment. It holds t.mu across the batch (bounded by
// the write deadline) and survives reconnects; it exits only at Close.
func (t *MuxTransport) writeLoop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		for !t.closed && (t.conn == nil || (len(t.dirty) == 0 && len(t.loose) == 0)) {
			t.cond.Wait()
		}
		if t.closed {
			return
		}
		conn, w := t.conn, t.w
		if t.timeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(t.timeout))
		}
		var frames int64
		var err error
		for err == nil && (len(t.dirty) > 0 || len(t.loose) > 0) {
			if len(t.dirty) > 0 {
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
				continue
			}
			req := t.loose[0]
			t.loose = t.loose[:copy(t.loose, t.loose[1:])]
			err = WriteRequest(w, req)
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
			// Drop the connection; in-flight windows replay on the next
			// exchange's re-dial.
			t.mu.Unlock()
			t.dropConn(conn)
			t.mu.Lock()
		}
	}
}

// readLoop decodes mux frames off one connection: every frame prunes its
// stream's in-flight window by the carried ack, window updates stop
// there, and exchange responses are handed to the waiter keyed by
// (session, seq).
func (t *MuxTransport) readLoop(conn net.Conn, r *bufio.Reader, dead chan struct{}) {
	defer close(dead)
	for {
		session, resp, err := ReadMuxFrame(r)
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
			ch <- resp // buffered; never blocks
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

// await blocks until the response registered under key arrives on ch, the
// connection it was sent on dies, or the exchange deadline passes. On
// either failure the response slot is discarded; a timeout also closes
// the socket so the reader goroutine exits and every stream replays its
// window over the re-dial.
func (t *MuxTransport) await(key muxKey, ch chan Response, conn net.Conn, dead chan struct{}) (Response, error) {
	var timeout <-chan time.Time
	if t.timeout > 0 {
		timer := time.NewTimer(t.timeout)
		defer timer.Stop()
		timeout = timer.C
	}
	var err error
	select {
	case resp := <-ch:
		return resp, nil
	case <-dead:
		err = errors.New("hrt: connection lost")
	case <-timeout:
		err = errors.New("hrt: exchange timed out")
		t.dropConn(conn)
	}
	t.mu.Lock()
	delete(t.pending, key)
	t.mu.Unlock()
	return Response{}, err
}

// Exchange performs one blocking round trip for a pre-stamped request —
// the request must already carry its (session, seq) — without attaching a
// stream. The fleet's shared-upstream pool uses it under its own Retry
// wrapper: retries, backoff, and re-resolution stay with the caller;
// Exchange just ensures a live connection, queues the frame for the
// shared writer, and waits for the matching response.
func (t *MuxTransport) Exchange(req Request) (Response, error) {
	t.mu.Lock()
	if err := t.liveConnLocked(false); err != nil {
		t.mu.Unlock()
		return Response{}, err
	}
	key := muxKey{req.Session, req.Seq}
	ch := make(chan Response, 1)
	t.pending[key] = ch
	t.loose = append(t.loose, req)
	t.cond.Signal()
	conn, dead := t.conn, t.dead
	t.mu.Unlock()
	return t.await(key, ch, conn, dead)
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
// connection's writer with every other stream, and its window
// backpressure (a full in-flight window forces a flush barrier) lands on
// this session alone.
type MuxStream struct {
	t        *MuxTransport
	session  uint64
	counters *Counters

	// All remaining state is guarded by t.mu.
	seq      uint64
	acked    uint64
	wroteSeq uint64
	inflight []Request
	queued   bool
	closed   bool
}

var _ AsyncTransport = (*MuxStream)(nil)

func (s *MuxStream) asyncCapable() bool { return true }

// Session reports the stream's session id.
func (s *MuxStream) Session() uint64 { return s.session }

// InFlight reports the number of unacknowledged requests (for tests).
func (s *MuxStream) InFlight() int {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return len(s.inflight)
}

// pruneLocked drops acknowledged requests from the window. Caller holds
// t.mu.
func (s *MuxStream) pruneLocked(ack uint64) {
	if ack > s.seq {
		// A malformed ack cannot acknowledge the future; ignore it.
		return
	}
	if ack > s.acked {
		s.acked = ack
	}
	for len(s.inflight) > 0 && s.inflight[0].Seq <= ack {
		s.inflight = s.inflight[1:]
	}
}

// Send queues a reply-free request: it is stamped, retained in the
// stream's in-flight window, and handed to the shared writer without
// waiting for any acknowledgement. A full window forces an early barrier
// first (WindowStalls) — on this stream only.
func (s *MuxStream) Send(req Request) error {
	t := s.t
	t.mu.Lock()
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
		t.mu.Lock()
	}
	s.seq++
	req.Session, req.Seq = s.session, s.seq
	req.Flags |= ReqNoReply
	s.inflight = append(s.inflight, req)
	t.markDirtyLocked(s)
	t.mu.Unlock()
	return nil
}

// Flush is the barrier: it blocks until the server has executed every
// in-flight request of this stream, surfacing the first deferred one-way
// error. An empty window returns immediately without touching the link.
func (s *MuxStream) Flush() error {
	t := s.t
	t.mu.Lock()
	if t.closed || s.closed {
		t.mu.Unlock()
		return errTransportClosed
	}
	if len(s.inflight) == 0 {
		t.mu.Unlock()
		return nil
	}
	s.seq++
	req := Request{Op: OpFlush, Session: s.session, Seq: s.seq}
	s.inflight = append(s.inflight, req)
	t.mu.Unlock()
	resp, err := s.exchange(req)
	if err != nil {
		return err
	}
	if resp.Err != "" {
		return fmt.Errorf("hrt: %s", resp.Err)
	}
	return nil
}

// RoundTrip performs a reply-bearing exchange. It is an implicit barrier
// for this stream: the server executes its queued one-way requests before
// this one, and the response acknowledges them all.
func (s *MuxStream) RoundTrip(req Request) (Response, error) {
	t := s.t
	t.mu.Lock()
	if t.closed || s.closed {
		t.mu.Unlock()
		return Response{}, errTransportClosed
	}
	s.seq++
	req.Session, req.Seq = s.session, s.seq
	s.inflight = append(s.inflight, req)
	t.mu.Unlock()
	return s.exchange(req)
}

// Close detaches the stream; the connection stays up for the others.
func (s *MuxStream) Close() error {
	t := s.t
	t.mu.Lock()
	s.closed = true
	delete(t.streams, s.session)
	t.mu.Unlock()
	return nil
}

// exchange drives one blocking request to completion, re-dialing,
// resending, and backing off across attempts, bounded by the connection's
// retry policy.
func (s *MuxStream) exchange(req Request) (Response, error) {
	return s.t.pacer.run(s, req, s.counters, s.t.tracer)
}

// attempt is one try of an exchange: ensure a connection, hand the
// stream's window to the shared writer, and wait for the response
// matching (session, seq). A RespResend answer rewinds this stream's
// write cursor and resends on the same connection without consuming a
// retry attempt; resend rounds are bounded so a misbehaving peer cannot
// loop the client forever.
func (s *MuxStream) attempt(req Request) (Response, error) {
	t := s.t
	for resend := 0; ; resend++ {
		t.mu.Lock()
		if resend > t.window+2 {
			t.mu.Unlock()
			return Response{}, errors.New("hrt: server demanded resend repeatedly without progress")
		}
		if err := t.liveConnLocked(s.closed); err != nil {
			t.mu.Unlock()
			return Response{}, err
		}
		key := muxKey{s.session, req.Seq}
		ch := make(chan Response, 1)
		t.pending[key] = ch
		if req.Seq <= s.acked {
			// The reply to this very request landed while no waiter was
			// registered (a timeout raced the response): its ack pruned the
			// frame from the in-flight window and moved the write cursor
			// past it, so no window replay will ever re-send it. Queue the
			// bare frame on the loose path; the server's dedup layer replays
			// the cached response.
			t.loose = append(t.loose, req)
			t.cond.Signal()
		} else {
			t.markDirtyLocked(s)
		}
		conn, dead := t.conn, t.dead
		t.mu.Unlock()

		resp, err := t.await(key, ch, conn, dead)
		if err != nil {
			return Response{}, err
		}
		t.mu.Lock()
		if resp.Flags&RespResend != 0 && resp.Ack < req.Seq {
			// The server refused to execute past a sequence gap; rewind to
			// its high-water mark and resend the tail.
			s.pruneLocked(resp.Ack)
			if resp.Ack < s.wroteSeq {
				s.wroteSeq = resp.Ack
			}
			t.mu.Unlock()
			if s.counters != nil {
				s.counters.Retries.Add(1)
			}
			t.tracer.Emit(obs.LevelInfo, "resend_rewind",
				obs.Uint("session", s.session), obs.Uint("seq", req.Seq), obs.Uint("ack", resp.Ack))
			continue
		}
		s.pruneLocked(resp.Ack)
		s.pruneLocked(req.Seq)
		t.mu.Unlock()
		return resp, nil
	}
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
	window := int(hello.Inst)
	if window < 1 {
		window = defaultWindow
	}
	if window > maxMuxWindow {
		window = maxMuxWindow
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
		for err == nil {
			select {
			case more, ok := <-st.respCh:
				if !ok {
					break batch
				}
				err = WriteMuxFrame(w, more.session, more.resp)
				frames++
			default:
				break batch
			}
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
	updateEvery := window / 2
	if updateEvery < 1 {
		updateEvery = 1
	}
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
	defer func() {
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
		start := time.Now()
		_, _ = ts.roundTrip(req)
		ts.Metrics.Observe(req.Op, true, time.Since(start))
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
	start := time.Now()
	resp, err := ts.roundTrip(req)
	ts.Metrics.Observe(req.Op, false, time.Since(start))
	if err != nil {
		resp = Response{Seq: req.Seq, Err: err.Error()}
	}
	st.respCh <- muxWrite{session: req.Session, resp: resp}
}
