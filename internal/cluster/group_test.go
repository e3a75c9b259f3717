package cluster

import (
	"net"
	"strings"
	"testing"
	"time"

	"slicehide/internal/hrt"
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
	return newGroup(cfg, nil, NewMembership(cfg.Peers), 0)
}

// TestNewRefusesServerWithoutJournal: every fleet replica streams its
// journal to its peers, so New refuses a server with no durability layer
// and names the flag that gives it one.
func TestNewRefusesServerWithoutJournal(t *testing.T) {
	const self = "127.0.0.1:1"
	_, err := New(Config{Self: self, Peers: []string{self}}, &hrt.TCPServer{})
	if err == nil || !strings.Contains(err.Error(), "-data-dir") {
		t.Fatalf("New over a server without a journal: %v, want an error naming -data-dir", err)
	}
}

// TestMembershipPersistsInDataDir: a replica saves each member table it
// adopts in its server's data directory with nothing configured for it,
// and restarted on that directory with its original peers it boots at
// the saved epoch, not at the epoch 1 its peer list seeds.
func TestMembershipPersistsInDataDir(t *testing.T) {
	res, _ := catchupSplit(t)
	self, other := deadAddr(t), deadAddr(t)
	for other == self {
		other = deadAddr(t)
	}
	dir := t.TempDir()
	cfg := Config{Self: self, Peers: []string{self}}
	r := startReplica(t, res, dir, self, cfg, 1<<20)
	m, err := r.g.Join(other)
	r.stop()
	if err != nil || m.Epoch != 2 || !m.Has(other) {
		t.Fatalf("Join(%s) = %v (epoch %d, %v), want epoch 2 holding it", other, err, m.Epoch, m.Members)
	}
	r = startReplica(t, res, dir, self, cfg, 1<<20)
	defer r.stop()
	if m := r.g.Membership(); m.Epoch != 2 || !m.Has(other) {
		t.Fatalf("restarted replica boots at epoch %d with %v, want epoch 2 holding %s", m.Epoch, m.Members, other)
	}
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

// TestReadinessVerdict pins each reason readiness can give, in the order
// verdict checks them.
func TestReadinessVerdict(t *testing.T) {
	const a, b = "10.0.0.2:7070", "10.0.0.3:7070"
	met := inbound{applied: wal.Position{Gen: 2, Records: 9}, open: 1, announced: 1}
	behind := met
	behind.target = wal.Position{Gen: 3, Records: 4}
	unannounced := met
	unannounced.announced = 0
	// fleet is a member with a and b live, inbound records bIn from b and
	// met from a, and the given peers' outbound streams registered.
	fleet := func(bIn inbound, lag int64, registered ...string) readiness {
		r := readiness{member: true, live: []string{a, b}, lag: lag,
			recv: map[string]inbound{a: met, b: bIn}, registered: make(map[string]bool)}
		for _, p := range registered {
			r.registered[p] = true
		}
		return r
	}
	for _, tc := range []struct {
		name   string
		r      readiness
		ready  bool
		reason string
	}{
		{"evicted with live peers", readiness{live: []string{a, b}, recv: map[string]inbound{a: unannounced}}, false,
			"not a fleet member (evicted; rejoin pending)"},
		{"leaving", readiness{member: true, leaving: true}, false, "leaving the fleet"},
		{"evicted", readiness{}, false, "not a fleet member (evicted; rejoin pending)"},
		{"joining", readiness{member: true, joining: true, joinSeed: a}, false,
			"joining the fleet via " + a},
		{"staged transfer", readiness{member: true, stageFrom: a, staged: 4096}, false,
			"snapshot transfer from " + a + " in progress (4096 bytes staged)"},
		{"unmet target", fleet(behind, 0, a, b), false,
			"catching up on " + b + ": applied (2,9), stream target (3,4)"},
		{"two unmet targets: the first sender in order", readiness{member: true, live: []string{a, b},
			recv: map[string]inbound{a: behind, b: behind}, registered: map[string]bool{a: true, b: true}}, false,
			"catching up on " + a + ": applied (2,9), stream target (3,4)"},
		{"dead member's unmet target", readiness{member: true, live: []string{a},
			recv: map[string]inbound{a: met, b: behind}, registered: map[string]bool{a: true}}, false,
			"catching up on " + b + ": applied (2,9), stream target (3,4)"},
		{"no announced stream", fleet(unannounced, 0, a, b), false,
			"awaiting inbound replication stream from " + b},
		{"connecting", fleet(met, 0, b), false, "replication streams connecting (1/2): awaiting " + a},
		{"lag", fleet(met, 7, a, b), false, "replication catching up: 7 records behind"},
		{"ready", fleet(met, 0, a, b), true, ""},
		{"ready alone", readiness{member: true}, true, ""},
	} {
		for range 100 { // the same verdict every time, whatever the map order
			if ready, reason := tc.r.verdict(); ready != tc.ready || reason != tc.reason {
				t.Fatalf("%s: verdict (%v, %q), want (%v, %q)", tc.name, ready, reason, tc.ready, tc.reason)
			}
		}
	}
}
