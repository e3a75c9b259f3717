package hrt

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Fault injection for the open↔hidden link. The chaos tests drive every
// split corpus program through these faults and assert byte-identical
// output and exactly-once mutation of hidden state — the paper's split
// deployment (§4) is only viable if a flaky LAN cannot corrupt it.

// FaultKind is one injectable link fault.
type FaultKind int

// Injectable faults, applied once per trip (see FaultScript).
const (
	// FaultNone forwards the round trip untouched.
	FaultNone FaultKind = iota
	// FaultDropRequest loses the request before it reaches the server.
	FaultDropRequest
	// FaultDropResponse executes the request but loses the reply — the
	// case that makes blind client retry unsafe without deduplication.
	FaultDropResponse
	// FaultDelay forwards the round trip after an extra delay.
	FaultDelay
	// FaultCorrupt garbles the request frame in flight.
	FaultCorrupt
	// FaultSever cuts the connection mid round trip.
	FaultSever

	faultKinds = int(FaultSever) + 1
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultDropRequest:
		return "drop-request"
	case FaultDropResponse:
		return "drop-response"
	case FaultDelay:
		return "delay"
	case FaultCorrupt:
		return "corrupt"
	case FaultSever:
		return "sever"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// FaultScript decides the fault for trip number trip (0-based, counted
// across reconnections so deterministic scripts survive re-dials). A trip
// is one round trip through a FaultTransport, or one relayed frame in
// either direction through a FaultProxy.
type FaultScript func(trip int) FaultKind

// FaultRates are per-trip probabilities for SeededScript; they should sum
// to at most 1.
type FaultRates struct {
	DropRequest  float64
	DropResponse float64
	Delay        float64
	Corrupt      float64
	Sever        float64
}

// SeededScript draws one fault per trip from rates, deterministic in
// seed.
func SeededScript(seed int64, rates FaultRates) FaultScript {
	rng := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	return func(int) FaultKind {
		mu.Lock()
		defer mu.Unlock()
		x := rng.Float64()
		for _, c := range []struct {
			p float64
			k FaultKind
		}{
			{rates.DropRequest, FaultDropRequest},
			{rates.DropResponse, FaultDropResponse},
			{rates.Delay, FaultDelay},
			{rates.Corrupt, FaultCorrupt},
			{rates.Sever, FaultSever},
		} {
			if x < c.p {
				return c.k
			}
			x -= c.p
		}
		return FaultNone
	}
}

// SeverEvery cuts the connection on every n-th trip.
func SeverEvery(n int) FaultScript {
	return func(trip int) FaultKind {
		if n > 0 && (trip+1)%n == 0 {
			return FaultSever
		}
		return FaultNone
	}
}

// ComposeScripts runs scripts in order; the first non-None fault wins.
func ComposeScripts(scripts ...FaultScript) FaultScript {
	return func(trip int) FaultKind {
		for _, s := range scripts {
			if k := s(trip); k != FaultNone {
				return k
			}
		}
		return FaultNone
	}
}

// ---------------------------------------------------------------------------

// Retry is the exactly-once client half reduced to one transport, for the
// in-process chaos tests that run it over FaultTransport: every logical
// round trip is stamped with the client's session id and a fresh sequence
// number, and retryable failures are re-sent with the same stamp through
// the same retryPacer a MuxStream exchange uses. The server-side Dedup
// layer answers the replays from its cache.
type Retry struct {
	Inner  Transport
	Policy RetryPolicy
	// Session identifies this client; zero picks a random id on first
	// use.
	Session uint64
	// Counters, when set, tallies retries.
	Counters *Counters

	once  sync.Once
	pacer *retryPacer
	seq   atomic.Uint64
}

// RoundTrip stamps, sends, and retries until success, a terminal error,
// or attempt exhaustion.
func (t *Retry) RoundTrip(req Request) (Response, error) {
	t.once.Do(func() {
		t.pacer = newRetryPacer(t.Policy)
		if t.Session == 0 {
			t.Session = NewSessionID()
		}
	})
	req.Session = t.Session
	req.Seq = t.seq.Add(1)
	return t.pacer.run(t, req, t.Counters, nil)
}

func (t *Retry) attempt(req Request) (Response, error) { return t.Inner.RoundTrip(req) }

// ---------------------------------------------------------------------------

// FaultTransport injects faults in front of an in-process transport chain
// (typically a Dedup over a Local server). Faults surface as retryable
// transport errors, letting tests exercise the Retry/Dedup exactly-once
// pair without a network.
type FaultTransport struct {
	Inner  Transport
	Script FaultScript
	// Delay is the extra latency of FaultDelay faults.
	Delay time.Duration
	// Sleep replaces time.Sleep (tests use a virtual clock).
	Sleep func(time.Duration)
	// Injected counts faults applied.
	Injected atomic.Int64

	trip atomic.Int64
}

// RoundTrip applies this trip's fault, then forwards.
func (t *FaultTransport) RoundTrip(req Request) (Response, error) {
	fault := FaultNone
	if t.Script != nil {
		fault = t.Script(int(t.trip.Add(1) - 1))
	}
	switch fault {
	case FaultDropRequest, FaultCorrupt, FaultSever:
		t.Injected.Add(1)
		return Response{}, fmt.Errorf("hrt: injected fault %v before delivery", fault)
	case FaultDropResponse:
		t.Injected.Add(1)
		if _, err := t.Inner.RoundTrip(req); err != nil {
			return Response{}, err
		}
		return Response{}, fmt.Errorf("hrt: injected fault %v after execution", fault)
	case FaultDelay:
		t.Injected.Add(1)
		sleep := t.Sleep
		if sleep == nil {
			sleep = time.Sleep
		}
		sleep(t.Delay)
	}
	return t.Inner.RoundTrip(req)
}

// ---------------------------------------------------------------------------

// FaultProxy is a fault-injecting TCP proxy placed between a MuxTransport
// and a TCPServer. It relays whole protocol frames in both directions and
// consults its script once per frame, so it can lose a request before the
// server sees it, lose a response after the server executed (the
// dangerous replay case), delay, garble a frame, or cut the connection —
// all deterministically under a seeded script.
type FaultProxy struct {
	// Backend is the real hidden server's address.
	Backend string
	// Script picks the fault per relayed frame; nil injects nothing.
	Script FaultScript
	// Delay is the extra latency of FaultDelay faults.
	Delay time.Duration

	ln   net.Listener
	wg   sync.WaitGroup
	trip atomic.Int64

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}

	injected [faultKinds]atomic.Int64
}

// Start begins proxying on addr and returns the address clients dial.
func (p *FaultProxy) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p.ln = ln
	p.conns = make(map[net.Conn]struct{})
	p.wg.Add(1)
	go p.acceptLoop()
	return ln.Addr(), nil
}

func (p *FaultProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		if !p.track(conn) {
			conn.Close()
			continue
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer p.untrack(conn)
			p.serve(conn)
		}()
	}
}

func (p *FaultProxy) track(conn net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[conn] = struct{}{}
	return true
}

func (p *FaultProxy) untrack(conn net.Conn) {
	p.mu.Lock()
	delete(p.conns, conn)
	p.mu.Unlock()
	conn.Close()
}

// serve relays one client connection to a dedicated backend connection.
// The mux hello exchange relays untouched — a connection that never
// establishes exercises nothing — and a connection that opens with
// anything else is closed: session traffic has no other wire path. After
// the hello the two directions relay independently (the backend emits
// unsolicited window-update frames, and replies complete out of order
// across sessions): an upstream goroutine forwards request frames while
// the downstream loop forwards mux frames. Each direction consults the
// script per frame and applies the fault kinds it can express (upstream:
// drop-request, corrupt, delay, sever; downstream: drop-response, delay,
// sever), skipping the rest.
func (p *FaultProxy) serve(client net.Conn) {
	backend, err := net.Dial("tcp", p.Backend)
	if err != nil {
		return
	}
	defer backend.Close()
	cr, cw := bufio.NewReader(client), bufio.NewWriter(client)
	br, bw := bufio.NewReader(backend), bufio.NewWriter(backend)
	hello, err := ReadRequest(cr)
	if err != nil || hello.Op != OpMuxHello {
		return
	}
	if err := WriteRequest(bw, hello); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	ack, err := ReadResponse(br)
	if err != nil {
		return
	}
	if err := WriteResponse(cw, ack); err != nil {
		return
	}
	if err := cw.Flush(); err != nil {
		return
	}
	if ack.Err != "" {
		return
	}
	// A sever (from either direction) must unblock both relays: closing
	// both sockets turns the other side's blocking read into an error.
	sever := func() {
		client.Close()
		backend.Close()
	}
	upDone := make(chan struct{})
	go func() {
		// Severing on every exit keeps the two relays coupled: when the
		// client hangs up, the downstream loop would otherwise block on a
		// backend that has nothing left to say.
		defer sever()
		defer close(upDone)
		for {
			req, err := ReadRequest(cr)
			if err != nil {
				return
			}
			switch p.nextFault() {
			case FaultSever:
				p.injected[FaultSever].Add(1)
				return
			case FaultDropRequest:
				p.injected[FaultDropRequest].Add(1)
				continue
			case FaultCorrupt:
				p.injected[FaultCorrupt].Add(1)
				// Break the framing (bogus op, oversized string length) so the
				// server kills the connection instead of executing a garbled
				// request as if it were valid.
				backend.Write([]byte{0xEE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
				return
			case FaultDelay:
				p.injected[FaultDelay].Add(1)
				time.Sleep(p.Delay)
			}
			if err := WriteRequest(bw, req); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}()
	defer func() {
		sever()
		<-upDone
	}()
	for {
		session, resp, err := ReadMuxFrame(br)
		if err != nil {
			return
		}
		switch p.nextFault() {
		case FaultSever:
			p.injected[FaultSever].Add(1)
			return
		case FaultDropResponse:
			p.injected[FaultDropResponse].Add(1)
			continue
		case FaultDelay:
			p.injected[FaultDelay].Add(1)
			time.Sleep(p.Delay)
		}
		if err := WriteMuxFrame(cw, session, resp); err != nil {
			return
		}
		if err := cw.Flush(); err != nil {
			return
		}
	}
}

// nextFault draws the script's verdict for the next relayed frame.
func (p *FaultProxy) nextFault() FaultKind {
	if p.Script == nil {
		return FaultNone
	}
	return p.Script(int(p.trip.Add(1) - 1))
}

// Injected reports how many faults of one kind were applied.
func (p *FaultProxy) Injected(kind FaultKind) int64 {
	return p.injected[kind].Load()
}

// TotalInjected reports the number of faults applied across all kinds.
func (p *FaultProxy) TotalInjected() int64 {
	var n int64
	for i := range p.injected {
		n += p.injected[i].Load()
	}
	return n
}

// Close stops the proxy and severs every live connection.
func (p *FaultProxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for conn := range p.conns {
		conn.Close()
	}
	p.mu.Unlock()
	var err error
	if p.ln != nil {
		err = p.ln.Close()
	}
	p.wg.Wait()
	return err
}
