package cluster

import (
	"net"
	"testing"
	"time"

	"slicehide/internal/wal"
)

// deadAddr returns an address that refuses TCP dials: a listener is bound
// to reserve the port, then closed before the test uses it.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// testGroup builds a group with its background loops left unstarted, so
// tests drive probeOnce by hand.
func testGroup(t *testing.T, peer string, commitTimeout time.Duration) *Group {
	t.Helper()
	cfg := Config{
		Self:          "127.0.0.1:1",
		Peers:         []string{"127.0.0.1:1", peer},
		DialTimeout:   50 * time.Millisecond,
		CommitTimeout: commitTimeout,
	}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	g := &Group{
		cfg:           cfg,
		tracker:       wal.NewOffsetTracker(),
		members:       NewMembership(cfg.Peers),
		alive:         map[string]bool{peer: true},
		fails:         make(map[string]int),
		deadSince:     make(map[string]time.Time),
		promoted:      make(map[string]bool),
		pumps:         make(map[string]chan struct{}),
		stop:          make(chan struct{}),
		pumpConns:     make(map[string]net.Conn),
		recvPos:       make(map[string]wal.Position),
		targets:       make(map[string]wal.Position),
		recvActive:    make(map[string]int),
		recvAnnounced: make(map[string]int),
	}
	return g
}

// TestCommitGateReleasesOnProberDeath is the regression test for the
// ack-degrade gate: when the prober declares the last connected follower
// dead, a response blocked in WaitCommitted must release immediately —
// not wait out the full commit timeout on a tracker entry whose socket
// still looks healthy.
func TestCommitGateReleasesOnProberDeath(t *testing.T) {
	peer := deadAddr(t)
	const commitTimeout = 30 * time.Second
	g := testGroup(t, peer, commitTimeout)

	// The follower is registered (its pump stream is "up") but will never
	// acknowledge: the classic wedged-but-connected shape.
	g.tracker.RegisterAt(peer, wal.Position{})
	pumpLocal, pumpRemote := net.Pipe()
	g.trackPumpConn(peer, pumpLocal)

	released := make(chan time.Duration, 1)
	start := time.Now()
	go func() {
		g.WaitCommitted(1, 100)
		released <- time.Since(start)
	}()

	// Let the waiter block, then drive the prober to the death threshold.
	time.Sleep(20 * time.Millisecond)
	select {
	case <-released:
		t.Fatal("WaitCommitted returned before the follower was declared dead")
	default:
	}
	for i := 0; i < probeFailThreshold; i++ {
		g.probeOnce()
	}

	select {
	case d := <-released:
		if d >= commitTimeout {
			t.Fatalf("commit gate waited out the full timeout (%v)", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("commit gate still blocked after the prober declared the last follower dead")
	}
	// Releasing via peer death is degradation the gate observed directly —
	// not a timeout — so it must not count as a sync stall.
	if got := g.syncStalls.Load(); got != 0 {
		t.Errorf("sync stalls %d, want 0 (death release is not a timeout)", got)
	}

	// The dead peer's pump connection must be severed too, kicking the pump
	// into its reconnect backoff instead of trusting a half-dead socket.
	pumpRemote.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := pumpRemote.Read(make([]byte, 1)); err == nil {
		t.Error("dead peer's pump connection was not closed")
	} else if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
		t.Error("dead peer's pump connection was left open (read timed out instead of failing)")
	}
}

// TestProbeDeathRequiresThreshold pins the flap damping around the death
// release: a single failed probe must not drop a registered follower from
// the commit tracker.
func TestProbeDeathRequiresThreshold(t *testing.T) {
	peer := deadAddr(t)
	g := testGroup(t, peer, time.Second)
	g.tracker.RegisterAt(peer, wal.Position{})

	for i := 0; i < probeFailThreshold-1; i++ {
		g.probeOnce()
	}
	if _, n := g.tracker.Min(); n != 1 {
		t.Fatalf("follower dropped after %d failed probes, want drop only at %d",
			probeFailThreshold-1, probeFailThreshold)
	}
	g.probeOnce()
	if _, n := g.tracker.Min(); n != 0 {
		t.Fatal("follower still tracked after the prober declared it dead")
	}
}
