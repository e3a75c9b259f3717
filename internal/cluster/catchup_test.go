package cluster

// In-process catch-up tests: a sender replica that has already pruned its
// oldest generations must bring an empty joiner up via a chunked snapshot
// transfer, and the transfer must survive the two ugly interruptions —
// a severed link mid-transfer (resume from the staged chunks) and a dead
// receiver mid-transfer (fresh transfer after restart on the same data
// dir). The joiner's fleet identity is a stalling TCP proxy, so the tests
// can freeze the byte stream at a chosen point without cooperation from
// either endpoint.

import (
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"slicehide/internal/core"
	"slicehide/internal/hrt"
	"slicehide/internal/interp"
	"slicehide/internal/ir"
	"slicehide/internal/slicer"
)

const catchupSrc = `
func f(x: int): int {
    var a: int = x;
    a = a + 100;
    return a;
}
func main() { print(f(1)); }
`

func catchupSplit(t *testing.T) (*core.Result, int) {
	t.Helper()
	prog, err := ir.Compile(catchupSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SplitProgram(prog, []core.Spec{{Func: "f", Seed: "a"}}, slicer.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	initFrag := -1
	for _, id := range res.Splits["f"].Hidden.FragIDs() {
		if res.Splits["f"].Hidden.Frags[id].Kind == core.FragExec {
			initFrag = id
			break
		}
	}
	if initFrag < 0 {
		t.Fatal("no exec fragment in split")
	}
	return res, initFrag
}

// stallProxy is a TCP forwarder that, while armed, lets each inbound
// connection deliver only budget bytes toward the backend before freezing
// — the snapshot transfer's bytes flow sender→receiver, so the freeze
// catches a transfer mid-chunk while short gossip exchanges fit under the
// budget and keep flowing. disarm unfreezes the world: current
// connections are severed, future ones forward unlimited.
type stallProxy struct {
	ln net.Listener

	mu      sync.Mutex
	backend string
	budget  int64 // per-conn sender→backend byte budget; <0 forwards all
	conns   map[net.Conn]struct{}
	release chan struct{}
	severed bool
}

func newStallProxy(t *testing.T, backend string, budget int64) *stallProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &stallProxy{
		ln:      ln,
		backend: backend,
		budget:  budget,
		conns:   make(map[net.Conn]struct{}),
		release: make(chan struct{}),
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go p.serve(c)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		p.disarm()
	})
	return p
}

func (p *stallProxy) addr() string { return p.ln.Addr().String() }

func (p *stallProxy) setBackend(addr string) {
	p.mu.Lock()
	p.backend = addr
	p.mu.Unlock()
}

// disarm severs every in-flight connection and lets future ones forward
// without a budget. Idempotent.
func (p *stallProxy) disarm() {
	p.mu.Lock()
	if p.severed {
		p.mu.Unlock()
		return
	}
	p.severed = true
	p.budget = -1
	for c := range p.conns {
		c.Close()
	}
	close(p.release)
	p.mu.Unlock()
}

func (p *stallProxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns[c] = struct{}{}
	p.mu.Unlock()
}

func (p *stallProxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
	c.Close()
}

func (p *stallProxy) serve(client net.Conn) {
	p.mu.Lock()
	backend := p.backend
	budget := p.budget
	release := p.release
	p.mu.Unlock()
	up, err := net.DialTimeout("tcp", backend, time.Second)
	if err != nil {
		client.Close()
		return
	}
	p.track(client)
	p.track(up)
	defer p.untrack(client)
	defer p.untrack(up)
	done := make(chan struct{})
	go func() {
		io.Copy(client, up)
		client.Close()
		up.Close()
		close(done)
	}()
	if budget < 0 {
		io.Copy(up, client)
	} else {
		io.CopyN(up, client, budget)
		// Frozen: hold the stream until the test disarms the proxy, then
		// fall through — the connections are already severed by then.
		<-release
		io.Copy(up, client)
	}
	client.Close()
	up.Close()
	<-done
}

// catchupReplica is one in-process fleet member: a durable TCP server with
// its group wired in, the same assembly the daemon performs.
type catchupReplica struct {
	ts *hrt.TCPServer
	g  *Group
}

// startCatchupReplica boots a replica listening on listen whose fleet
// identity is cfg.Self (they differ for the proxied joiner).
func startCatchupReplica(t *testing.T, res *core.Result, dir, listen string, cfg Config) *catchupReplica {
	t.Helper()
	return startReplica(t, res, dir, listen, cfg, 4)
}

func (r *catchupReplica) stop() {
	r.g.Close()
	r.ts.Close()
}

// prunedPastGenesis reports whether every listed durability layer has
// rotated past (and pruned) generation 0 — the precondition for catch-up:
// a joiner asking for (0,0) can no longer be served by journal streaming
// alone.
func prunedPastGenesis(layers ...*hrt.Durability) func() bool {
	return func() bool {
		for _, p := range layers {
			gens, err := p.Generations()
			if err != nil || len(gens) == 0 || gens[0] == 0 {
				return false
			}
		}
		return true
	}
}

// driveCorpus appends records on the replica at addr until pruned reports
// true (see prunedPastGenesis). Calls are paced: rotation is only checked
// on request arrival and is suppressed while the previous background
// snapshot is still landing, so a burst of records produces one rotation,
// not one per SnapshotEvery.
func driveCorpus(t *testing.T, res *core.Result, addrFor func(session uint64) string, initFrag int, pruned func() bool) {
	t.Helper()
	policy := hrt.RetryPolicy{Retries: 40, BackoffBase: 2 * time.Millisecond, BackoffMax: 50 * time.Millisecond}
	for s := 1; s <= 30; s++ {
		rt, err := hrt.DialMux(hrt.MuxConfig{
			Addr:    addrFor(uint64(1000 + s)),
			Timeout: 2 * time.Second,
			Policy:  policy,
		})
		if err != nil {
			t.Fatal(err)
		}
		sess := &hrt.Session{T: rt.Stream(uint64(1000+s), nil)}
		inst, err := sess.Enter("f", 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			if _, err := sess.Call("f", inst, initFrag, []interp.Value{interp.IntV(int64(s*100 + i))}); err != nil {
				t.Fatal(err)
			}
			time.Sleep(2 * time.Millisecond)
		}
		rt.Close()
		if s >= 3 && pruned() {
			return
		}
	}
	if !pruned() {
		t.Fatal("generation 0 never pruned despite 30 sessions of traffic")
	}
}

// waitUntil polls cond until it returns true or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// stageDepth reports how many snapshot chunks the group has staged, or -1
// with no transfer in progress.
func stageDepth(g *Group) int64 {
	g.recvMu.Lock()
	defer g.recvMu.Unlock()
	if g.stage == nil {
		return -1
	}
	return g.stage.chunks
}

// TestCatchupTransferResumesAfterSever freezes the snapshot transfer to a
// joiner mid-chunk, severs the link, and requires the sender's reconnect
// to resume from the joiner's staged chunks — not restart from chunk zero
// — then converge to identical state with the joiner ready.
func TestCatchupTransferResumesAfterSever(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replica catch-up harness")
	}
	res, initFrag := catchupSplit(t)
	senderAddr := deadAddr(t)
	sender := startCatchupReplica(t, res, t.TempDir(), senderAddr, Config{
		Self:  senderAddr,
		Peers: []string{senderAddr},
	})
	defer sender.stop()
	driveCorpus(t, res, func(uint64) string { return senderAddr }, initFrag, prunedPastGenesis(sender.ts.Persist))
	senderStats := sender.ts.Server.Stats()

	// The joiner's fleet identity is the proxy; its server hides behind it.
	// 300 bytes lets the stream handshake and the first chunks through,
	// then freezes mid-transfer.
	joinerListen := deadAddr(t)
	proxy := newStallProxy(t, joinerListen, 300)
	res2, _ := catchupSplit(t)
	joiner := startCatchupReplica(t, res2, t.TempDir(), joinerListen, Config{
		Self:     proxy.addr(),
		JoinSeed: senderAddr,
	})
	defer joiner.stop()

	// The transfer must reach the joiner and freeze with a partial stage.
	waitUntil(t, 10*time.Second, "a partial snapshot stage on the joiner", func() bool {
		return stageDepth(joiner.g) >= 0
	})
	if ready, reason := joiner.g.Ready(); ready || !strings.Contains(reason, "snapshot transfer") {
		t.Errorf("joiner mid-transfer: ready=%v reason=%q, want snapshot-transfer readiness hold", ready, reason)
	}

	// Sever the frozen link. The sender reconnects, the joiner offers its
	// staged chunk count, and the transfer resumes rather than restarting.
	proxy.disarm()
	waitUntil(t, 20*time.Second, "the joiner to become ready", func() bool {
		ready, _ := joiner.g.Ready()
		return ready
	})
	if got := joiner.g.snapResumes.Load(); got < 1 {
		t.Errorf("snap_xfer_resumes = %d, want >= 1 (transfer restarted from scratch?)", got)
	}
	if got := joiner.g.SnapXferBytes(); got <= 0 {
		t.Errorf("snap_xfer_bytes = %d on the joiner, want > 0", got)
	}
	if got := sender.g.SnapXferBytes(); got <= 0 {
		t.Errorf("snap_xfer_bytes = %d on the sender, want > 0", got)
	}
	waitUntil(t, 10*time.Second, "joiner stats to match the sender", func() bool {
		return joiner.ts.Server.Stats() == senderStats
	})
	if got, want := joiner.g.Membership().Epoch, uint64(2); got < want {
		t.Errorf("joiner epoch %d, want >= %d", got, want)
	}
}

// TestCatchupTransferRestartAfterReceiverDeath kills the joiner while a
// transfer is frozen half-received and restarts it on the same data dir:
// the staged chunks (memory only) are gone, a fresh transfer must run to
// completion, and the joiner must never have reported ready while it held
// partial state.
func TestCatchupTransferRestartAfterReceiverDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replica catch-up harness")
	}
	res, initFrag := catchupSplit(t)
	senderAddr := deadAddr(t)
	sender := startCatchupReplica(t, res, t.TempDir(), senderAddr, Config{
		Self:  senderAddr,
		Peers: []string{senderAddr},
	})
	defer sender.stop()
	driveCorpus(t, res, func(uint64) string { return senderAddr }, initFrag, prunedPastGenesis(sender.ts.Persist))
	senderStats := sender.ts.Server.Stats()

	joinerDir := t.TempDir()
	joinerListen := deadAddr(t)
	proxy := newStallProxy(t, joinerListen, 300)
	res2, _ := catchupSplit(t)
	joiner := startCatchupReplica(t, res2, joinerDir, joinerListen, Config{
		Self:     proxy.addr(),
		JoinSeed: senderAddr,
	})
	waitUntil(t, 10*time.Second, "a partial snapshot stage on the joiner", func() bool {
		return stageDepth(joiner.g) >= 0
	})
	if ready, _ := joiner.g.Ready(); ready {
		t.Error("joiner reported ready while a snapshot transfer was half-received")
	}

	// Kill the joiner with the transfer frozen: the staged chunks die with
	// the process; the journal has adopted nothing.
	joiner.stop()
	proxy.disarm()

	// Restart on the same data dir behind the same fleet identity. The
	// persisted membership already includes the joiner, so it needs no
	// second admission round.
	res3, _ := catchupSplit(t)
	joinerListen2 := deadAddr(t)
	proxy.setBackend(joinerListen2)
	joiner2 := startCatchupReplica(t, res3, joinerDir, joinerListen2, Config{
		Self:     proxy.addr(),
		JoinSeed: senderAddr,
	})
	defer joiner2.stop()

	waitUntil(t, 20*time.Second, "the restarted joiner to become ready", func() bool {
		ready, _ := joiner2.g.Ready()
		return ready
	})
	if got := joiner2.g.SnapXferBytes(); got <= 0 {
		t.Errorf("snap_xfer_bytes = %d on the restarted joiner, want > 0 (fresh transfer)", got)
	}
	waitUntil(t, 10*time.Second, "restarted joiner stats to match the sender", func() bool {
		return joiner2.ts.Server.Stats() == senderStats
	})
	if m := joiner2.g.Membership(); !m.Has(proxy.addr()) || !m.Has(senderAddr) {
		t.Errorf("restarted joiner membership %s missing a member", m.Encode())
	}
}

// TestDeclinedOfferLeavesStreamHealthy joins a cold replica to a
// TWO-founder fleet whose founders have both pruned generation 0: one
// founder's snapshot transfer wins, the other's offer is declined with
// "proceed" because the joiner is no longer empty. Regression: the
// declined sender left its snapshot-offer connection deadline armed, so
// its (announced) stream to the joiner was severed CommitTimeout later —
// and on an idle fleet the pump, blocked waiting for records to stream,
// never noticed and never reconnected, wedging the joiner's readiness
// forever. Once ready, the joiner must STAY ready across several
// CommitTimeouts of idleness.
func TestDeclinedOfferLeavesStreamHealthy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replica catch-up harness")
	}
	const commitTimeout = 500 * time.Millisecond
	res, initFrag := catchupSplit(t)
	founders := []string{deadAddr(t), deadAddr(t)}
	resB, _ := catchupSplit(t)
	a := startCatchupReplica(t, res, t.TempDir(), founders[0], Config{
		Self: founders[0], Peers: founders, CommitTimeout: commitTimeout,
	})
	defer a.stop()
	b := startCatchupReplica(t, resB, t.TempDir(), founders[1], Config{
		Self: founders[1], Peers: founders, CommitTimeout: commitTimeout,
	})
	defer b.stop()
	// Both founders must prune genesis: the losing founder then cannot
	// serve the joiner by journal streaming, so its offer-and-decline
	// exchange — the poisoned path — is guaranteed to run. Each session
	// dials its rendezvous owner; full-mesh streaming rotates both
	// journals regardless of where a record executed.
	driveCorpus(t, res, func(session uint64) string {
		return Owner(session, founders)
	}, initFrag, prunedPastGenesis(a.ts.Persist, b.ts.Persist))
	stats := a.ts.Server.Stats()

	resJ, _ := catchupSplit(t)
	joinerAddr := deadAddr(t)
	joiner := startCatchupReplica(t, resJ, t.TempDir(), joinerAddr, Config{
		Self: joinerAddr, JoinSeed: founders[0], CommitTimeout: commitTimeout,
	})
	defer joiner.stop()

	waitUntil(t, 20*time.Second, "the joiner to become ready", func() bool {
		ready, _ := joiner.g.Ready()
		return ready
	})
	if got := joiner.g.SnapXferBytes(); got <= 0 {
		t.Errorf("snap_xfer_bytes = %d on the joiner, want > 0", got)
	}
	waitUntil(t, 10*time.Second, "joiner stats to match the founders", func() bool {
		return joiner.ts.Server.Stats() == stats
	})

	// The fleet is idle from here on: no records flow, so a stream severed
	// by a stale deadline is never re-established. Readiness must hold
	// without a flap for several CommitTimeouts.
	deadline := time.Now().Add(4 * commitTimeout)
	for time.Now().Before(deadline) {
		if ready, reason := joiner.g.Ready(); !ready {
			t.Fatalf("joiner readiness flapped on an idle fleet: %s", reason)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// SnapXferBytes reports the snapshot-transfer bytes moved (both
// directions), 0 when no transfer ran.
func (g *Group) SnapXferBytes() int64 { return g.snapXferBytes.Load() }
