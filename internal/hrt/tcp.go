package hrt

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"slicehide/internal/obs"
)

// TCPServer serves a hidden component Server over TCP; this is the
// process that would run on the secure machine (see cmd/hiddend). It is
// hardened against a hostile or flaky open side: requests are
// deduplicated by (session, seq) so client retries mutate hidden state
// exactly once, connections are tracked so Close terminates idle clients,
// per-connection deadlines bound slow or stalled peers, a connection cap
// bounds resource use, and a panic while serving one connection never
// takes the server down.
type TCPServer struct {
	Server *Server

	// ReadTimeout bounds how long a connection may sit idle between
	// requests; 0 disables the deadline (clients with retry support
	// simply reconnect after an idle disconnect).
	ReadTimeout time.Duration
	// WriteTimeout bounds each response write; 0 disables the deadline.
	WriteTimeout time.Duration
	// MaxConns caps concurrently served connections; accepts beyond the
	// cap are closed immediately. 0 means unlimited.
	MaxConns int
	// MaxSessions caps the replay cache (default 1024).
	MaxSessions int
	// EvictGrace protects recently-seen sessions from replay-cache
	// eviction (see Dedup.EvictGrace).
	EvictGrace time.Duration
	// Shards stripes the replay cache's session map (see Dedup.Shards);
	// the hidden-state Server carries its own shard count from
	// NewServer. Values < 2 mean a single stripe.
	Shards int
	// Tracer, when set, receives dedup replay/resend/evict/bounce events.
	Tracer *obs.Tracer
	// Metrics, when set, records per-request server-side execution latency
	// under the same hrt_latency_* names the client uses.
	Metrics *RuntimeMetrics
	// Persist, when set, makes the server crash-recoverable: state is
	// restored from Persist's data directory before the first accept, every
	// applied mutation is journaled before its response is released, and
	// Close writes a final snapshot (cmd/hiddend -data-dir).
	Persist *Durability
	// Router, when set, lets a fleet redirect stamped requests for
	// sessions another live replica owns (see internal/cluster). Sessions
	// with local replay state are always served here.
	Router Router
	// ReplHandler, when set, accepts incoming replication streams: a
	// connection whose first request is OpRepl is handed to it after the
	// handshake response, along with the sender's self-declared fleet
	// address and boot id (see internal/cluster; 0 from a sender that
	// states none).
	ReplHandler func(conn net.Conn, r *bufio.Reader, sender string, boot uint64)
	// ReplBoot identifies this process incarnation to replication peers: it
	// is the boot id the OpRepl handshake answers with.
	ReplBoot uint64
	// ReplResume, when set, supplies the resume position encoded into the
	// OpRepl handshake response: the highest (generation, index) in the
	// sender's stream coordinates this replica has already applied. Zero
	// values ask for the stream from the beginning.
	ReplResume func(sender string) (gen uint64, index int64)
	// Gossip, when set, answers membership gossip pings (OpPing). A server
	// without one still acknowledges pings, so a plain liveness probe
	// against a non-fleet server succeeds.
	Gossip GossipHandler

	ln       net.Listener
	lnOnce   sync.Once
	wg       sync.WaitGroup
	dedup    *Dedup
	requests obs.CounterHandle
	// panics counts serving goroutines that died to a recovered panic
	// (hrt_conn_panics_total); each also emits one conn_panic trace event.
	panics obs.CounterHandle

	// Multiplexing tallies (see serveMux): live mux connections, live
	// per-session streams across them, hellos accepted, window updates
	// emitted, and the shared writer's coalescing (frames per flush).
	muxConns         atomic.Int64
	muxStreams       atomic.Int64
	muxHellos        atomic.Int64
	muxWindowUpdates atomic.Int64
	muxFrames        atomic.Int64
	muxFlushes       atomic.Int64

	mu       sync.Mutex
	closed   bool
	draining bool
	conns    map[net.Conn]struct{}
}

// ListenAndServe starts accepting connections on addr. It returns once the
// listener is ready; serving continues in the background until Close.
func (ts *TCPServer) ListenAndServe(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ts.ln = ln
	ts.dedup = &Dedup{
		Inner:       &Local{Server: ts.Server},
		MaxSessions: ts.MaxSessions,
		EvictGrace:  ts.EvictGrace,
		Shards:      ts.Shards,
		Tracer:      ts.Tracer,
	}
	ts.conns = make(map[net.Conn]struct{})
	if ts.Persist != nil {
		// Recover durable state before the first accept so no request can
		// race the replay; a recovery failure leaves nothing half-started.
		if err := ts.Persist.start(ts.Server, ts.dedup); err != nil {
			ln.Close()
			return nil, fmt.Errorf("hrt: durability recovery: %w", err)
		}
		ts.dedup.Persist = ts.Persist
	}
	ts.wg.Add(1)
	go ts.acceptLoop()
	return ln.Addr(), nil
}

// RegisterMetrics exports the server's gauges and counters into reg and
// attaches the registry's latency histograms, so hiddend's /metrics
// endpoint reports connection, session, and replay-cache state alongside
// per-request execution latency. Call it before or after ListenAndServe;
// gauges sample live state at scrape time.
func (ts *TCPServer) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	ts.Metrics = NewRuntimeMetrics(reg)
	ts.Server.RegisterVMMetrics(reg)
	ts.requests = reg.Counter("hrt_requests_total")
	ts.panics = reg.Counter("hrt_conn_panics_total")
	reg.Gauge("hrt_active_conns", func() int64 { return int64(ts.ActiveConns()) })
	reg.Gauge("hrt_active_activations", func() int64 { return int64(ts.Server.ActiveInstances()) })
	reg.Gauge("hrt_dedup_sessions", func() int64 {
		if ts.dedup == nil {
			return 0
		}
		return int64(ts.dedup.Sessions())
	})
	dedupStat := func(f func(*Dedup) int64) func() int64 {
		return func() int64 {
			if ts.dedup == nil {
				return 0
			}
			return f(ts.dedup)
		}
	}
	reg.Gauge("hrt_dedup_replays", dedupStat(func(d *Dedup) int64 { return d.Replays.Load() }))
	reg.Gauge("hrt_dedup_resends", dedupStat(func(d *Dedup) int64 { return d.Resends.Load() }))
	reg.Gauge("hrt_dedup_evictions", dedupStat(func(d *Dedup) int64 { return d.Evictions.Load() }))
	reg.Gauge("hrt_dedup_bounces", dedupStat(func(d *Dedup) int64 { return d.Bounces.Load() }))
	stats := func(f func(ServerStats) int64) func() int64 {
		return func() int64 { return f(ts.Server.Stats()) }
	}
	reg.Gauge("hrt_executed_enters", stats(func(s ServerStats) int64 { return s.Enters }))
	reg.Gauge("hrt_executed_exits", stats(func(s ServerStats) int64 { return s.Exits }))
	reg.Gauge("hrt_executed_calls", stats(func(s ServerStats) int64 { return s.Calls }))
	reg.Gauge("mux_conns", func() int64 { return ts.muxConns.Load() })
	reg.Gauge("mux_active_streams", func() int64 { return ts.muxStreams.Load() })
	reg.Gauge("mux_hellos", func() int64 { return ts.muxHellos.Load() })
	reg.Gauge("mux_window_updates", func() int64 { return ts.muxWindowUpdates.Load() })
	reg.Gauge("mux_writer_frames", func() int64 { return ts.muxFrames.Load() })
	reg.Gauge("mux_writer_flushes", func() int64 { return ts.muxFlushes.Load() })
}

func (ts *TCPServer) acceptLoop() {
	defer ts.wg.Done()
	for {
		conn, err := ts.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !ts.track(conn) {
			conn.Close()
			continue
		}
		ts.wg.Add(1)
		go func() {
			defer ts.wg.Done()
			defer ts.untrack(conn)
			ts.serveConn(conn)
		}()
	}
}

// track registers a live connection, refusing it when the server is
// closed or at its connection cap.
func (ts *TCPServer) track(conn net.Conn) bool {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.closed || ts.draining {
		return false
	}
	if ts.MaxConns > 0 && len(ts.conns) >= ts.MaxConns {
		return false
	}
	ts.conns[conn] = struct{}{}
	return true
}

func (ts *TCPServer) untrack(conn net.Conn) {
	ts.mu.Lock()
	delete(ts.conns, conn)
	ts.mu.Unlock()
	conn.Close()
}

// muxRequiredErr answers a session request that arrives outside a
// multiplexed connection: clients from before the per-connection protocol
// was removed get an explicit, actionable refusal instead of a hang.
const muxRequiredErr = "hrt: multiplexed connection required: this server executes session requests only on a connection opened with a mux hello (upgrade the client)"

// serveConn performs a fresh connection's handshake. The first frame
// decides what the connection is for its lifetime: a mux hello makes it
// the (only) carrier of session requests, OpRepl a replication stream,
// and OpPing a gossip/liveness exchange that may repeat. Anything else
// gets one plain error response and a closed socket. Every frame, the
// first included, goes through the connection's one decoder, which
// consumes exactly the frames it returns, so a replication stream carries
// on from the same buffered reader.
func (ts *TCPServer) serveConn(conn net.Conn) {
	var req Request
	// A panic while serving one connection (a codec or handler bug hit by an
	// adversarial frame) must not take the hidden server down; the client
	// sees a closed connection and retries elsewhere.
	defer func() {
		if recover() != nil {
			ts.notePanic(req)
		}
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	dec := newConnDecoder(r)
	for {
		if ts.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(ts.ReadTimeout))
		}
		var err error
		if req, err = dec.next(); err != nil {
			return // EOF, deadline, or broken connection
		}
		ts.requests.Add(1)
		switch req.Op {
		case OpRepl:
			ts.serveRepl(conn, r, w, req)
			return
		case OpMuxHello:
			ts.serveMux(conn, dec, w, req)
			return
		case OpPing:
			if !ts.serveGossip(conn, w, req) {
				return
			}
			continue
		}
		if ts.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(ts.WriteTimeout))
		}
		// Best effort: the connection closes whether or not the refusal lands.
		if WriteResponse(w, Response{Seq: req.Seq, Err: muxRequiredErr}) == nil {
			_ = w.Flush()
		}
		return
	}
}

// notePanic records a recovered serving panic: the counter moves and one
// trace event names the request being served by op/session/seq only —
// never its payload (the obs.Secret rule).
func (ts *TCPServer) notePanic(req Request) {
	ts.panics.Add(1)
	ts.Tracer.Emit(obs.LevelError, "conn_panic",
		obs.Str("op", req.Op.String()), obs.Uint("session", req.Session), obs.Uint("seq", req.Seq))
}

// roundTrip dispatches one request through the dedup layer, threading it
// through the durability layer (journal hooks plus snapshot scheduling)
// when one is attached.
func (ts *TCPServer) roundTrip(req Request) (Response, error) {
	if ts.Persist != nil {
		return ts.Persist.roundTrip(ts.dedup, req)
	}
	return ts.dedup.RoundTrip(req)
}

// ActiveConns reports the number of live connections (for tests).
func (ts *TCPServer) ActiveConns() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.conns)
}

// closeListener shuts the accept loop down exactly once; Drain and Close
// both funnel through it so a drained server's Close stays idempotent.
func (ts *TCPServer) closeListener() error {
	var err error
	ts.lnOnce.Do(func() {
		if ts.ln != nil {
			err = ts.ln.Close()
		}
	})
	return err
}

// DrainStats reports the outcome of a graceful drain.
type DrainStats struct {
	// Drained counts connections that finished on their own before the
	// deadline.
	Drained int
	// Aborted counts connections still live at the deadline; they are
	// severed by the Close that follows a drain.
	Aborted int
}

// Drain gracefully quiesces the server: it stops accepting new
// connections (the listener is closed and late accepts are refused) and
// waits up to timeout for in-flight connections to finish on their own —
// a client that closes its end, or an idle one reaped by ReadTimeout,
// counts as drained. Connections still live at the deadline are reported
// as aborted and left for Close to sever. Drain does not mark the server
// closed; call Close afterwards to release the remaining resources (and,
// with Persist set, write the final snapshot).
func (ts *TCPServer) Drain(timeout time.Duration) DrainStats {
	ts.mu.Lock()
	ts.draining = true
	start := len(ts.conns)
	ts.mu.Unlock()
	ts.closeListener()
	deadline := time.Now().Add(timeout)
	for {
		n := ts.ActiveConns()
		if n == 0 || time.Now().After(deadline) {
			return DrainStats{Drained: start - n, Aborted: n}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Close stops the listener, severs every live connection — including
// idle-but-open clients that would otherwise keep Close hanging in
// wg.Wait — waits for the serving goroutines to drain, and, when a
// durability layer is attached, writes its final snapshot.
func (ts *TCPServer) Close() error {
	ts.mu.Lock()
	if ts.closed {
		ts.mu.Unlock()
		return nil
	}
	ts.closed = true
	for conn := range ts.conns {
		conn.Close()
	}
	ts.mu.Unlock()
	err := ts.closeListener()
	ts.wg.Wait()
	if ts.Persist != nil {
		if perr := ts.Persist.Close(); err == nil {
			err = perr
		}
	}
	return err
}
