package cluster

// Client-side connection sharing for the fleet. One connection per session
// would multiply connections by membership at fleet scale, so a MuxPool
// keeps ONE multiplexed upstream per replica, shared by every session's
// stream — M sessions across N replicas cost N sockets, not M. It is the
// hrt.Fleet those streams follow their owners across.

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
	// Counters, when set, tallies the pool's traffic: reconnects, writer
	// coalescing, and every session's retries and window stalls.
	Counters *hrt.Counters
	// Tracer, when set, receives the pool's reconnect/retry events.
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

// SessionTransport returns the stream of one session (hrt.FollowOwner),
// homed on its rendezvous owner at first; it follows owner redirects and
// falls down the rank past dead replicas. Zero session picks a random id.
func (p *MuxPool) SessionTransport(session uint64) *hrt.MuxStream {
	if session == 0 {
		session = hrt.NewSessionID()
	}
	return hrt.FollowOwner(p, session, p.cfg.Policy, p.cfg.Counters, p.cfg.Tracer)
}

// Rank orders the membership for session, its rendezvous owner first.
func (p *MuxPool) Rank(session uint64) []string { return Rank(session, p.cfg.Peers) }

// Upstream returns the pooled upstream to addr, dialing it on first use.
// Dial failures are not cached: the next caller re-dials, so a replica
// that was down at first contact is retried, not blacklisted.
func (p *MuxPool) Upstream(addr string) (*hrt.MuxTransport, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errPoolClosed
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
		return nil, errPoolClosed
	}
	if cur := p.conns[addr]; cur != nil {
		mt.Close()
		return cur, nil
	}
	p.conns[addr] = mt
	return mt, nil
}

var errPoolClosed = hrt.Terminal(fmt.Errorf("cluster: mux pool closed"))

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
