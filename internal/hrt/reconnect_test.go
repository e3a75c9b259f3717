package hrt

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slicehide/internal/core"
)

// connTracker wraps a dial function so every connection's lifecycle is
// observable: the leak and double-close regression tests below assert
// that re-dial paths close exactly what they replace.
type connTracker struct {
	mu    sync.Mutex
	conns []*trackedConn
}

type trackedConn struct {
	net.Conn
	closes atomic.Int32
}

func (c *trackedConn) Close() error {
	c.closes.Add(1)
	return c.Conn.Close()
}

func (ct *connTracker) dialer(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		tc := &trackedConn{Conn: conn}
		ct.mu.Lock()
		ct.conns = append(ct.conns, tc)
		ct.mu.Unlock()
		return tc, nil
	}
}

// leaked returns the connections that were dialed but never closed.
func (ct *connTracker) leaked() int {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	n := 0
	for _, c := range ct.conns {
		if c.closes.Load() == 0 {
			n++
		}
	}
	return n
}

func (ct *connTracker) dialed() int {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return len(ct.conns)
}

// flipRouter redirects every stamped request while on; tests flip it to
// force the redirect-driven retry path.
type flipRouter struct {
	on    atomic.Bool
	owner string
}

func (r *flipRouter) Route(session uint64, known bool) (string, bool) {
	return r.owner, r.on.Load()
}

// TestMuxRedialNeverOrphans is the leak regression test: a connect that
// lands while a previous connection is still installed (the racy
// interleaving of two exchanges re-dialing after an idle-timeout
// disconnect) must close the old socket, not overwrite and leak it, and
// each socket the client dials is closed exactly once.
func TestMuxRedialNeverOrphans(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	ts := &TCPServer{Server: NewServer(NewRegistry(res))}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	tracker := &connTracker{}
	mt, err := DialMux(MuxConfig{Dial: tracker.dialer(addr.String()), Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the race loser re-dialing over an installed connection.
	mt.mu.Lock()
	err = mt.connectLocked()
	mt.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if got := tracker.dialed(); got != 2 {
		t.Fatalf("dialed %d connections, want 2", got)
	}
	if tracker.conns[0].closes.Load() == 0 {
		t.Error("re-dial orphaned the previous connection (leaked fd)")
	}
	if tracker.conns[1].closes.Load() != 0 {
		t.Error("re-dial closed the fresh connection it just installed")
	}
	if err := mt.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tracker.leaked(); got != 0 {
		t.Errorf("%d connections leaked after Close", got)
	}
	for i, c := range tracker.conns {
		if got := c.closes.Load(); got != 1 {
			t.Errorf("connection %d closed %d times, want exactly 1", i, got)
		}
	}
}

// oneConnFleet is a fleet whose every member is the one connection mt.
type oneConnFleet struct{ mt *MuxTransport }

func (f oneConnFleet) Rank(uint64) []string                   { return []string{"only"} }
func (f oneConnFleet) Upstream(string) (*MuxTransport, error) { return f.mt, nil }

// redirectFollower is the client half of the fleet's redirect protocol
// reduced to one replica: a fleet session's stream (FollowOwner) whose
// every member is mt, so an owner redirect is retried on the same shared
// connection, which stays up across it.
func redirectFollower(mt *MuxTransport, session uint64) Transport {
	return FollowOwner(oneConnFleet{mt}, session,
		RetryPolicy{BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond}, nil, nil)
}

// redirectIdleHarness starts a redirect-capable server that reaps idle
// connections after 50ms, and a tracked mux connection to it.
func redirectIdleHarness(t *testing.T) (*flipRouter, *connTracker, *MuxTransport, *Counters) {
	t.Helper()
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	router := &flipRouter{owner: "10.0.0.99:7070"}
	ts := &TCPServer{Server: NewServer(NewRegistry(res)), Router: router, ReadTimeout: 50 * time.Millisecond}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	tracker := &connTracker{}
	counters := &Counters{}
	mt, err := DialMux(MuxConfig{Dial: tracker.dialer(addr.String()), Timeout: time.Second, Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	return router, tracker, mt, counters
}

// assertClosedOnce checks every dialed connection was closed by the client
// exactly once: none leaked, none double-closed. (The server's idle reaper
// closes its own end, which is invisible here.)
func assertClosedOnce(t *testing.T, tracker *connTracker) {
	t.Helper()
	tracker.mu.Lock()
	defer tracker.mu.Unlock()
	for i, c := range tracker.conns {
		if got := c.closes.Load(); got != 1 {
			t.Errorf("connection %d closed %d times by the client, want exactly 1", i, got)
		}
	}
}

// TestReconnectRedirectThenIdleDisconnect drives the first ordering end
// to end: an owner redirect is retried on the same connection, and the
// idle-timeout disconnect of that connection follows. The session must
// keep working across both events and every dialed connection must be
// closed exactly once by teardown.
func TestReconnectRedirectThenIdleDisconnect(t *testing.T) {
	router, tracker, mt, counters := redirectIdleHarness(t)
	sess := &Session{T: redirectFollower(mt, 0)}
	inst, err := sess.Enter("f", 0)
	if err != nil {
		t.Fatal(err)
	}

	// Ordering 1: redirect lands first. One round trip is refused and the
	// retry lands after the flag flips back (a fleet whose membership
	// settled).
	router.on.Store(true)
	go func() {
		time.Sleep(10 * time.Millisecond)
		router.on.Store(false)
	}()
	if err := sess.Exit("f", inst); err != nil {
		t.Fatalf("exit across redirect: %v", err)
	}

	// ...then the idle timeout severs the connection.
	time.Sleep(150 * time.Millisecond)
	inst2, err := sess.Enter("f", 0)
	if err != nil {
		t.Fatalf("enter after idle disconnect: %v", err)
	}
	if err := sess.Exit("f", inst2); err != nil {
		t.Fatal(err)
	}
	if counters.Reconnects.Load() == 0 {
		t.Error("idle disconnect never forced a re-dial")
	}

	if err := mt.Close(); err != nil {
		t.Fatal(err)
	}
	assertClosedOnce(t, tracker)
}

// TestReconnectIdleDisconnectThenRedirect drives the opposite ordering:
// the idle timeout severs the connection first, and the re-dialed
// replacement is greeted with an owner redirect. Same invariants.
func TestReconnectIdleDisconnectThenRedirect(t *testing.T) {
	router, tracker, mt, counters := redirectIdleHarness(t)
	sess := &Session{T: redirectFollower(mt, 0)}
	inst, err := sess.Enter("f", 0)
	if err != nil {
		t.Fatal(err)
	}

	// Ordering 2: the idle timeout severs first...
	time.Sleep(150 * time.Millisecond)
	// ...and the re-dial runs straight into a redirect before recovering.
	router.on.Store(true)
	go func() {
		time.Sleep(10 * time.Millisecond)
		router.on.Store(false)
	}()
	if err := sess.Exit("f", inst); err != nil {
		t.Fatalf("exit across idle disconnect + redirect: %v", err)
	}
	if counters.Reconnects.Load() == 0 {
		t.Error("idle disconnect never forced a re-dial")
	}

	if err := mt.Close(); err != nil {
		t.Fatal(err)
	}
	assertClosedOnce(t, tracker)
}
