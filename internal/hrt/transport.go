package hrt

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slicehide/internal/interp"
	"slicehide/internal/obs"
)

// Op identifies a request type on the open↔hidden channel.
type Op byte

// Request operations.
const (
	OpEnter Op = iota + 1
	OpExit
	OpCall
	// OpFlush is the pipelined barrier: it executes nothing but its
	// response acknowledges every earlier request of the session and
	// carries any error a reply-free request deferred.
	OpFlush
)

// Request flag bits.
const (
	// ReqNoReply marks a reply-free request: the sender does not wait for
	// (and the server does not produce) a response. Errors are deferred to
	// the session's next reply-bearing request or flush barrier.
	ReqNoReply byte = 1 << 0
)

// Response flag bits.
const (
	// RespResend reports that the server saw a sequence gap (an earlier
	// one-way request never arrived) and did not execute this request: the
	// client must resend its in-flight window starting after Ack.
	RespResend byte = 1 << 0
	// RespWindow marks an unsolicited per-session window update on a
	// multiplexed connection: Ack is the highest sequence number the server
	// has executed for the session, Seq is zero (no exchange is waiting),
	// and Val/Err are empty. The client prunes its in-flight window so
	// long pipelined streams self-prune without flush barriers.
	RespWindow byte = 1 << 1
)

// Request is one message from the open component to the hidden component.
type Request struct {
	Op   Op
	Fn   string
	Inst int64
	// Obj is the receiver instance id accompanying OpEnter for methods of
	// classes with hidden fields.
	Obj  int64
	Frag int
	Args []interp.Value
	// Session identifies the client to the server's replay cache; zero
	// disables deduplication (trusted in-process transports).
	Session uint64
	// Seq numbers logical round trips within a session. Retries of the
	// same logical request carry the same Seq, so the server can answer a
	// replay from its cache instead of mutating hidden state twice.
	Seq uint64
	// Flags carries the ReqNoReply bit for pipelined one-way requests.
	Flags byte
}

// NoReply reports whether the request is reply-free.
func (r Request) NoReply() bool { return r.Flags&ReqNoReply != 0 }

// Response is the hidden component's reply.
type Response struct {
	Val  interp.Value
	Inst int64
	Err  string
	// Seq echoes the request's sequence number so a pipelined client can
	// match responses read by its reader goroutine to waiting callers.
	Seq uint64
	// Ack is the highest sequence number the server has executed for this
	// session; it lets the client prune its in-flight window.
	Ack uint64
	// Flags carries the RespResend bit.
	Flags byte
}

// Transport carries requests to wherever the hidden component lives.
type Transport interface {
	RoundTrip(req Request) (Response, error)
}

// AsyncTransport is a Transport that can additionally send reply-free
// requests one-way — without blocking for a round trip — and flush them at
// a barrier. Implementations must preserve request order: a later
// RoundTrip observes the effects of every earlier Send, and surfaces any
// error an earlier Send deferred.
type AsyncTransport interface {
	Transport
	// Send queues a reply-free request. It must not block on the link
	// round-trip time; errors the hidden side reports are deferred to the
	// next Flush or RoundTrip.
	Send(req Request) error
	// Flush blocks until every queued request has executed on the hidden
	// side, surfacing the first deferred error.
	Flush() error
}

// ---------------------------------------------------------------------------

// Local is a Transport that invokes a Server directly (no network). It
// also implements AsyncTransport: sends execute immediately (there is no
// link to hide latency on) with server errors deferred to the next
// barrier, mirroring the pipelined TCP contract for tests and simulations.
type Local struct {
	Server *Server

	mu       sync.Mutex
	deferred error
}

// RoundTrip dispatches the request to the in-process server.
func (l *Local) RoundTrip(req Request) (Response, error) {
	l.mu.Lock()
	deferred := l.deferred
	l.mu.Unlock()
	if deferred != nil {
		// In-order semantics: an earlier one-way request failed; nothing
		// after it may appear to succeed.
		return Response{Seq: req.Seq, Err: deferred.Error()}, nil
	}
	resp, _ := l.Server.dispatch(req, false)
	resp.Seq, resp.Ack = req.Seq, req.Seq
	return resp, nil
}

// Send executes the request immediately, deferring any failure to the next
// Flush or RoundTrip (one-way semantics without a wire).
func (l *Local) Send(req Request) error {
	l.mu.Lock()
	poisoned := l.deferred != nil
	l.mu.Unlock()
	if poisoned {
		return nil
	}
	if resp, _ := l.Server.dispatch(req, false); resp.Err != "" {
		err := serverError(resp.Err)
		l.mu.Lock()
		if l.deferred == nil {
			l.deferred = err
		}
		l.mu.Unlock()
	}
	return nil
}

// Flush surfaces the first deferred one-way error. Everything already
// executed, so there is nothing to wait for.
func (l *Local) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.deferred
}

// serverError is the client-side error for a message the hidden server
// reported, with the package prefix added only where it is missing.
func serverError(msg string) error {
	if strings.HasPrefix(msg, "hrt: ") {
		return errors.New(msg)
	}
	return errors.New("hrt: " + msg)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// ---------------------------------------------------------------------------

// Latency wraps a Transport and adds a fixed round-trip delay, simulating
// the LAN between the unsecure machine and the secure server in the paper's
// Table 5 setup (or a smart-card/serial link with a larger delay).
//
// Latency models the pipelined link too: one-way sends cost nothing (the
// frame leaves in the socket buffer and the client moves on), while every
// reply-bearing round trip and every flush barrier over a non-empty window
// pays one RTT. This makes N consecutive hidden updates followed by a
// barrier cost ~1 RTT instead of N — exactly the behavior of the real
// pipelined TCP transport, without sockets.
type Latency struct {
	Inner Transport
	// RTT is added to every round trip.
	RTT time.Duration
	// Sleep, when set, receives each RTT the link charges in place of a
	// real delay: a virtual clock, which is how Table 5, the benchmark's
	// kernel_run and the tests count the link. Unset, the link calls
	// time.Sleep, which overshoots short RTTs by the OS timer resolution.
	Sleep func(time.Duration)

	mu        sync.Mutex
	unflushed int
}

// RoundTrip delays, then forwards.
func (l *Latency) RoundTrip(req Request) (Response, error) {
	l.sleep()
	l.mu.Lock()
	l.unflushed = 0 // a reply acknowledges everything sent before it
	l.mu.Unlock()
	return l.Inner.RoundTrip(req)
}

// Send forwards one-way without paying the round trip.
func (l *Latency) Send(req Request) error {
	at, ok := l.Inner.(AsyncTransport)
	if !ok {
		return fmt.Errorf("hrt: latency inner transport %T is not async-capable", l.Inner)
	}
	l.mu.Lock()
	l.unflushed++
	l.mu.Unlock()
	return at.Send(req)
}

// Flush pays one RTT for the barrier acknowledgement — but only when
// something was sent since the last reply; an empty window needs no ack.
func (l *Latency) Flush() error {
	at, ok := l.Inner.(AsyncTransport)
	if !ok {
		return fmt.Errorf("hrt: latency inner transport %T is not async-capable", l.Inner)
	}
	l.mu.Lock()
	pending := l.unflushed
	l.unflushed = 0
	l.mu.Unlock()
	if pending > 0 {
		l.sleep()
	}
	return at.Flush()
}

func (l *Latency) sleep() {
	if l.RTT > 0 {
		if l.Sleep != nil {
			l.Sleep(l.RTT)
		} else {
			time.Sleep(l.RTT)
		}
	}
}

// ---------------------------------------------------------------------------

// Counters observes traffic through a transport.
type Counters struct {
	// Interactions counts round trips (the paper's "Component
	// Interactions" column counts hidden-fragment calls; Enter/Exit are
	// tallied separately).
	Calls      atomic.Int64
	Enters     atomic.Int64
	Exits      atomic.Int64
	ValuesSent atomic.Int64
	// BytesSent/BytesRecv tally logical wire volume (one encode per
	// logical request/response, retransmissions excluded; retries are
	// visible in Retries). Pipelined transports additionally report true
	// on-the-wire volume in WireBytesSent/WireBytesRecv.
	BytesSent atomic.Int64
	BytesRecv atomic.Int64
	// WireBytesSent/WireBytesRecv are the exact encoded bytes a wire
	// transport put on / took off the link, including coalesced frames and
	// retransmissions. Zero on in-process transports, which have no wire.
	WireBytesSent atomic.Int64
	WireBytesRecv atomic.Int64
	// Retries counts re-sent round trips; Reconnects counts re-dials of a
	// broken link. Both stay zero on fault-free transports.
	Retries    atomic.Int64
	Reconnects atomic.Int64
	// OneWay counts reply-free requests sent without blocking; RoundTrips
	// counts requests that blocked for a reply. Their split is the
	// pipelining win: only RoundTrips + Flushes pay link latency.
	OneWay     atomic.Int64
	RoundTrips atomic.Int64
	// Flushes counts barrier acknowledgements awaited; WindowStalls counts
	// flushes forced early because the in-flight window filled up.
	Flushes      atomic.Int64
	WindowStalls atomic.Int64
	// SessionBounces counts server refusals of this session because its
	// exactly-once replay state was lost (eviction or a non-durable
	// restart); see SessionEvictedError.
	SessionBounces atomic.Int64
	// MuxBatchedFrames and MuxFlushes tally the multiplexed connection's
	// write path: frames coalesced into the buffer and flushes of it.
	// Their ratio is the mean coalesce size. Zero on unmuxed transports.
	MuxBatchedFrames atomic.Int64
	MuxFlushes       atomic.Int64
}

// Interactions returns the number of fragment calls observed.
func (c *Counters) Interactions() int64 { return c.Calls.Load() }

// Blocking returns the number of operations that blocked on the link for a
// full round trip: reply-bearing requests plus flush barriers. On a
// latency-bound link, wall-clock communication cost is Blocking × RTT.
func (c *Counters) Blocking() int64 { return c.RoundTrips.Load() + c.Flushes.Load() }

// Counting wraps a Transport with counters and, optionally, observability:
// with Metrics set every operation is timed into the per-request-kind
// latency histograms, and with Tracer set it is emitted as a structured
// trace event. An observed Counting sits outermost in the wrapper chain so
// the measured latency covers the whole link (retries, backoff, simulated
// RTT included). Request payloads are traced as secrets and redacted by
// default — see the package obs redaction rule. With both nil it only
// counts: no clock reading, no trace attributes.
type Counting struct {
	Inner    Transport
	Counters *Counters
	Metrics  *RuntimeMetrics
	Tracer   *obs.Tracer
}

func (c *Counting) count(req Request) {
	switch req.Op {
	case OpCall:
		c.Counters.Calls.Add(1)
		c.Counters.ValuesSent.Add(int64(len(req.Args)))
	case OpEnter:
		c.Counters.Enters.Add(1)
	case OpExit:
		c.Counters.Exits.Add(1)
	}
	c.Counters.BytesSent.Add(RequestWireSize(req))
}

// RoundTrip counts, then forwards; an observed Counting also times and
// traces the exchange.
func (c *Counting) RoundTrip(req Request) (Response, error) {
	c.count(req)
	c.Counters.RoundTrips.Add(1)
	if c.Metrics == nil && c.Tracer == nil {
		return c.recv(c.Inner.RoundTrip(req))
	}
	// Build the trace attributes only when the events are kept.
	traced := c.Tracer.Enabled(obs.LevelDebug)
	if traced {
		c.Tracer.Emit(obs.LevelDebug, "send",
			obs.Str("op", req.Op.String()), obs.Uint("seq", req.Seq), obs.Str("fn", req.Fn),
			obs.Int("frag", int64(req.Frag)), valuesAttr("args", req.Args))
	}
	start := time.Now()
	resp, err := c.recv(c.Inner.RoundTrip(req))
	d := time.Since(start)
	c.Metrics.Observe(req.Op, false, d)
	if traced {
		attrs := []obs.Attr{
			obs.Str("op", req.Op.String()), obs.Uint("seq", req.Seq), obs.Dur("took", d), obs.Err(err),
		}
		if err == nil {
			attrs = append(attrs, valuesAttr("val", []interp.Value{resp.Val}), obs.Str("resp_err", resp.Err))
		}
		c.Tracer.Emit(obs.LevelDebug, "recv", attrs...)
	}
	return resp, err
}

// recv counts a reply's bytes.
func (c *Counting) recv(resp Response, err error) (Response, error) {
	if err == nil {
		c.Counters.BytesRecv.Add(ResponseWireSize(resp))
	}
	return resp, err
}

// Send counts a one-way request, then forwards it without blocking. An
// observed Counting times the local enqueue — near zero normally, a full
// barrier wait when the in-flight window is saturated — so window
// backpressure shows up in the one-way histograms' tail.
func (c *Counting) Send(req Request) error {
	at, ok := c.Inner.(AsyncTransport)
	if !ok {
		return fmt.Errorf("hrt: counting inner transport %T is not async-capable", c.Inner)
	}
	c.count(req)
	c.Counters.OneWay.Add(1)
	if c.Metrics == nil && c.Tracer == nil {
		return at.Send(req)
	}
	if c.Tracer.Enabled(obs.LevelDebug) {
		c.Tracer.Emit(obs.LevelDebug, "send_oneway",
			obs.Str("op", req.Op.String()), obs.Str("fn", req.Fn),
			obs.Int("frag", int64(req.Frag)), valuesAttr("args", req.Args))
	}
	start := time.Now()
	err := at.Send(req)
	c.Metrics.Observe(req.Op, true, time.Since(start))
	if err != nil {
		c.Tracer.Emit(obs.LevelWarn, "send_oneway_error", obs.Str("op", req.Op.String()), obs.Err(err))
	}
	return err
}

// Flush counts the barrier, then forwards; an observed Counting also times
// and traces the wait.
func (c *Counting) Flush() error {
	at, ok := c.Inner.(AsyncTransport)
	if !ok {
		return fmt.Errorf("hrt: counting inner transport %T is not async-capable", c.Inner)
	}
	c.Counters.Flushes.Add(1)
	if c.Metrics == nil && c.Tracer == nil {
		return at.Flush()
	}
	start := time.Now()
	err := at.Flush()
	d := time.Since(start)
	c.Metrics.Observe(OpFlush, false, d)
	c.Tracer.Emit(obs.LevelDebug, "flush", obs.Dur("took", d), obs.Err(err))
	return err
}

// ---------------------------------------------------------------------------

// Session adapts a Transport to the interpreter's HiddenSession interface.
type Session struct {
	T Transport
	// Addr names the hidden server behind T, so server-side refusals
	// surface as actionable errors instead of bare wire strings. Optional.
	Addr string
	// Counters, when set, tallies client-observed session bounces.
	Counters *Counters
}

var _ interp.HiddenSession = (*Session)(nil)

// respError converts a server-reported error string into the client-side
// error.
func (s *Session) respError(resp Response) error {
	if resp.Err == "" {
		return nil
	}
	return s.typedError(serverError(resp.Err))
}

// typedError upgrades an error carrying the session-evicted marker, which
// it counts as a bounce, or the owner-redirect marker to its typed form. It
// serves both a reply's error and a one-way send's deferred barrier error,
// which carry the server's message alike.
func (s *Session) typedError(err error) error {
	// The errors.As targets escape, so they are made only for an error.
	if err == nil || errors.As(err, new(*SessionEvictedError)) || errors.As(err, new(*OwnerRedirectError)) {
		return err
	}
	msg := err.Error()
	if strings.Contains(msg, sessionEvictedMsg) {
		if s.Counters != nil {
			s.Counters.SessionBounces.Add(1)
		}
		return &SessionEvictedError{Addr: s.Addr, Session: parseEvictedSession(msg), Detail: msg}
	}
	if oe := ParseOwnerRedirect(msg, s.Addr); oe != nil {
		return oe
	}
	return err
}

// Enter opens a hidden activation.
func (s *Session) Enter(fn string, obj int64) (int64, error) {
	resp, err := s.T.RoundTrip(Request{Op: OpEnter, Fn: fn, Obj: obj})
	if err != nil {
		return 0, s.typedError(err)
	}
	if err := s.respError(resp); err != nil {
		return 0, err
	}
	return resp.Inst, nil
}

// Exit closes a hidden activation.
func (s *Session) Exit(fn string, inst int64) error {
	resp, err := s.T.RoundTrip(Request{Op: OpExit, Fn: fn, Inst: inst})
	if err != nil {
		return s.typedError(err)
	}
	return s.respError(resp)
}

// Call executes a hidden fragment.
func (s *Session) Call(fn string, inst int64, frag int, args []interp.Value) (interp.Value, error) {
	resp, err := s.T.RoundTrip(Request{Op: OpCall, Fn: fn, Inst: inst, Frag: frag, Args: args})
	if err != nil {
		return interp.NullV(), s.typedError(err)
	}
	if err := s.respError(resp); err != nil {
		return interp.NullV(), err
	}
	return resp.Val, nil
}

// ---------------------------------------------------------------------------

// AsyncSession adapts an AsyncTransport to the interpreter's
// AsyncHiddenSession contract: reply-free fragment calls and Exits go
// one-way, Enter assigns the activation instance id on the client so it
// needs no reply either, and Barrier flushes the in-flight window before
// externally visible events (program output, shutdown).
//
// Client-assigned instance ids are namespaced by the transport's session
// on the server, so concurrent clients cannot collide.
type AsyncSession struct {
	Session
	at       AsyncTransport
	nextInst atomic.Int64
}

// NewAsyncSession wraps t; it returns nil when t is not an AsyncTransport.
func NewAsyncSession(t Transport) *AsyncSession {
	at, ok := t.(AsyncTransport)
	if !ok {
		return nil
	}
	return &AsyncSession{Session: Session{T: t}, at: at}
}

var _ interp.AsyncHiddenSession = (*AsyncSession)(nil)

// EnterAsync opens a hidden activation one-way under a client-assigned
// instance id. A failure (unknown component) surfaces at the next barrier
// or reply-bearing call, exactly where the in-order semantics put it.
func (s *AsyncSession) EnterAsync(fn string, obj int64) (int64, error) {
	inst := s.nextInst.Add(1)
	return inst, s.at.Send(Request{Op: OpEnter, Fn: fn, Obj: obj, Inst: inst})
}

// ExitAsync closes the activation one-way.
func (s *AsyncSession) ExitAsync(fn string, inst int64) error {
	return s.at.Send(Request{Op: OpExit, Fn: fn, Inst: inst})
}

// CallOneWay executes a reply-free hidden fragment without blocking.
func (s *AsyncSession) CallOneWay(fn string, inst int64, frag int, args []interp.Value) error {
	return s.at.Send(Request{Op: OpCall, Fn: fn, Inst: inst, Frag: frag, Args: args})
}

// Barrier blocks until every one-way request has executed, surfacing
// deferred errors (session-evicted bounces in typed form).
func (s *AsyncSession) Barrier() error {
	return s.typedError(s.at.Flush())
}
