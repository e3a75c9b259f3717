package cluster

// Client-side connection sharing for the fleet. One connection per session
// would multiply connections by membership at fleet scale, so a MuxPool
// keeps ONE multiplexed upstream per replica and routes every session's
// exchanges over the pooled connection of its rendezvous owner — M
// sessions across N replicas cost N sockets, not M. It is also the fleet
// client's resolver: each attempt tries the session's current home, falls
// down its rendezvous rank past dead replicas, and follows owner
// redirects.

import (
	"fmt"
	"sync"
	"time"

	"slicehide/internal/hrt"
	"slicehide/internal/obs"
)

// MuxPoolConfig configures the fleet's shared multiplexed upstreams.
type MuxPoolConfig struct {
	// Peers is the fleet membership (every replica's address).
	Peers []string
	// Timeout is the per-attempt I/O deadline on each upstream; default 5s.
	Timeout time.Duration
	// Policy bounds retries and backoff for every session's round trips.
	Policy hrt.RetryPolicy
	// Counters, when set, tallies connection-level traffic across the
	// pool (reconnects, writer coalescing).
	Counters *hrt.Counters
	// Tracer, when set, receives the pool's reconnect/redirect events.
	Tracer *obs.Tracer
}

// MuxPool shares one multiplexed connection per replica among every
// session of this process. Sessions attach through SessionTransport;
// upstreams are dialed lazily on first use and survive replica failures —
// a dead replica's transport re-dials on demand while its sessions fail
// over to the next member of their rendezvous rank.
type MuxPool struct {
	cfg MuxPoolConfig

	mu     sync.Mutex
	conns  map[string]*hrt.MuxTransport
	closed bool
}

// NewMuxPool returns an empty pool over cfg.Peers, a membership fixed for
// the pool's life; no connection is opened until a session's first exchange
// needs one.
func NewMuxPool(cfg MuxPoolConfig) *MuxPool {
	cfg.Peers = append([]string(nil), cfg.Peers...)
	return &MuxPool{cfg: cfg, conns: make(map[string]*hrt.MuxTransport)}
}

// transport returns the pooled upstream to addr, dialing it on first use.
// Dial failures are not cached: the next caller re-dials, so a replica
// that was down at first contact is retried, not blacklisted.
func (p *MuxPool) transport(addr string) (*hrt.MuxTransport, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, hrt.Terminal(fmt.Errorf("cluster: mux pool closed"))
	}
	if mt := p.conns[addr]; mt != nil {
		p.mu.Unlock()
		return mt, nil
	}
	p.mu.Unlock()

	// Dial outside the pool lock: one slow replica must not block every
	// session homing elsewhere. A racing dial to the same replica loses
	// below and closes its extra connection.
	mt, err := hrt.DialMux(hrt.MuxConfig{
		Addr:     addr,
		Timeout:  p.cfg.Timeout,
		Policy:   p.cfg.Policy,
		Counters: p.cfg.Counters,
		Tracer:   p.cfg.Tracer,
	})
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		mt.Close()
		return nil, hrt.Terminal(fmt.Errorf("cluster: mux pool closed"))
	}
	if cur := p.conns[addr]; cur != nil {
		mt.Close()
		return cur, nil
	}
	p.conns[addr] = mt
	return mt, nil
}

// Close tears every pooled upstream down; subsequent exchanges fail
// terminally.
func (p *MuxPool) Close() error {
	p.mu.Lock()
	p.closed = true
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	var first error
	for _, mt := range conns {
		if err := mt.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SessionTransport returns the exactly-once transport for one session:
// requests are stamped and retried by the hrt.Retry layer, and each
// attempt lands on the pooled upstream of the session's current home —
// its rendezvous owner at first, then wherever the fleet's owner
// redirects point as membership changes. Zero session picks a random id.
func (p *MuxPool) SessionTransport(session uint64) hrt.Transport {
	if session == 0 {
		session = hrt.NewSessionID()
	}
	return &hrt.Retry{
		Inner:    &poolConn{p: p, session: session},
		Policy:   p.cfg.Policy,
		Session:  session,
		Counters: p.cfg.Counters,
		Tracer:   p.cfg.Tracer,
	}
}

// poolConn is one session's view of the pool: a single attempt picks the
// session's current home (sticky once a replica answers), exchanges over
// the pooled upstream, and re-homes on owner redirects; past the home it
// falls down the session's rendezvous rank over the pool's membership. All
// errors it returns are retryable except pool shutdown — the hrt.Retry
// layer above decides whether the next attempt happens.
type poolConn struct {
	p       *MuxPool
	session uint64

	mu sync.Mutex
	// home is the replica that last answered for this session ("" probes
	// the rendezvous rank in order).
	home string
}

func (c *poolConn) RoundTrip(req hrt.Request) (hrt.Response, error) {
	c.mu.Lock()
	home := c.home
	c.mu.Unlock()
	rank := Rank(c.session, c.p.cfg.Peers)
	candidates := rank
	if home != "" {
		candidates = make([]string, 0, len(rank)+1)
		candidates = append(candidates, home)
		for _, a := range rank {
			if a != home {
				candidates = append(candidates, a)
			}
		}
	}
	var lastErr error
	for _, addr := range candidates {
		mt, err := c.p.transport(addr)
		if err != nil {
			if !hrt.Retryable(err) {
				return hrt.Response{}, err // pool closed or mux refused
			}
			lastErr = err
			continue
		}
		resp, err := mt.Exchange(req)
		if err != nil {
			if !hrt.Retryable(err) {
				return hrt.Response{}, err
			}
			lastErr = err
			continue // dead or unresponsive replica: next in rank
		}
		if oe := hrt.ParseOwnerRedirect(resp.Err, addr); oe != nil {
			// The fleet homes this session elsewhere. Adopt the named
			// owner and surface the redirect as a retryable error so the
			// Retry layer re-sends the same (session, seq) there — the
			// shared connection stays up for every other session.
			c.setHome(oe.Owner)
			return hrt.Response{}, oe
		}
		c.setHome(addr)
		return resp, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: empty fleet membership")
	}
	return hrt.Response{}, fmt.Errorf("cluster: session %d found no live replica among %v: %w",
		req.Session, rank, lastErr)
}

func (c *poolConn) setHome(addr string) {
	c.mu.Lock()
	c.home = addr
	c.mu.Unlock()
}
