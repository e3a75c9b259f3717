package cluster

// Origin cover: a relayer passes over a record its origin still delivers to
// the third peer, and relays only what no live origin covers. These tests
// pin the exact frame count of a healthy fleet, the pending-list rules, and
// the rewinds that deliver what an origin stopped covering.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slicehide/internal/core"
	"slicehide/internal/hrt"
	"slicehide/internal/interp"
	"slicehide/internal/wal"
)

// Three replicas, every one an owner: each receives exactly the records the
// other two executed, every one straight from its origin. Nothing is
// relayed, nothing comes back.
func TestCoverExactDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replica harness")
	}
	_, initFrag := catchupSplit(t)
	addrs, fleet := startFleet(t, func() *core.Result { r, _ := catchupSplit(t); return r }, 3)
	const calls, perOwner = 30, 2
	var wg sync.WaitGroup
	for i := range addrs {
		next := uint64(1000 * (i + 1))
		for s := 0; s < perOwner; s++ {
			session := ownedBy(addrs, addrs[i], next)
			next = session + 1
			wg.Add(1)
			go func() {
				defer wg.Done()
				runSession(t, addrs, session, initFrag, calls)
			}()
		}
	}
	wg.Wait()
	records := int64(len(addrs) * perOwner * (calls + 1))
	waitConverged(t, fleet, int(records))

	foreign := records - records/int64(len(addrs))
	for i, r := range fleet {
		if got := r.g.replReceived.Load(); got != foreign {
			t.Errorf("replica %d received %d record frames, want exactly the %d its peers executed", i, got, foreign)
		}
	}
	received, skipped := frames(fleet)
	pumps := int64(len(addrs) * (len(addrs) - 1))
	if received+skipped != pumps*records {
		t.Errorf("%d frames received + %d records passed over = %d, want %d pumps x %d records = %d",
			received, skipped, received+skipped, pumps, records, pumps*records)
	}
}

// coverGroup is a group with just the state the skip rule reads: B's view,
// with an inbound stream from origin A (boot 7) whose covers it is told.
func coverGroup(t *testing.T) (*Group, *originStream) {
	t.Helper()
	g := &Group{
		cfg:        Config{Self: "b"},
		ts:         &hrt.TCPServer{Persist: hrt.NewDurability(hrt.DurabilityOptions{Dir: t.TempDir()})},
		tracker:    wal.NewOffsetTracker(),
		stamps:     newStampTable(64),
		origins:    make(map[string]*originStream),
		pumpCovers: make(map[string]*pumpCover),
		pumpConns:  make(map[string]net.Conn),
	}
	return g, g.openOrigin("a", 7)
}

// stamped is a journal record payload carrying stamp (session, seq).
func stamped(session, seq uint64) []byte {
	b := make([]byte, 32)
	binary.LittleEndian.PutUint64(b[2:], session)
	binary.LittleEndian.PutUint64(b[10:], seq)
	return b
}

// The skip rule and its pending list, case by case, for origin A ("a"),
// relayer B (the group) and third peer C ("c").
func TestCoverPendingTable(t *testing.T) {
	at := func(n int64) wal.Position { return wal.Position{Gen: 3, Records: n} }
	// Record i is A's record at (1, i) and ours at (3, 10+i).
	origin := func(i int64) stampEntry {
		return stampEntry{sender: "a", boot: 7, pos: wal.Position{Gen: 1, Records: i}, origin: true}
	}
	pending := func(g *Group) []pendingEntry {
		g.coverMu.Lock()
		defer g.coverMu.Unlock()
		if pc := g.pumpCovers["c"]; pc != nil {
			return append([]pendingEntry(nil), pc.lists["a"]...)
		}
		return nil
	}

	t.Run("pending pops in order", func(t *testing.T) {
		g, src := coverGroup(t)
		g.noteCover(src, "a", "c", wal.Position{Gen: 1, Records: 2})
		for i := int64(1); i <= 5; i++ {
			if !g.coverSkip("c", origin(i), at(10+i)) {
				t.Fatalf("record %d relayed while A follows C", i)
			}
		}
		if got := pending(g); len(got) != 3 || got[0].local != at(13) {
			t.Fatalf("pending %+v, want records 3-5 (1-2 are covered already)", got)
		}
		g.noteCover(src, "a", "c", wal.Position{Gen: 1, Records: 4})
		if got := pending(g); len(got) != 1 || got[0].local != at(15) {
			t.Fatalf("after a cover of 4: pending %+v, want record 5 alone", got)
		}
		g.noteCover(src, "a", "c", wal.Position{Gen: 1, Records: 9})
		if got := pending(g); len(got) != 0 {
			t.Fatalf("after a cover of 9: pending %+v", got)
		}
	})

	for _, loss := range []string{"stream ends", "prober declares A dead", "A stops following C"} {
		t.Run("loss rewinds to the first pending record: "+loss, func(t *testing.T) {
			g, src := coverGroup(t)
			local, remote := net.Pipe()
			defer remote.Close()
			g.pumpConns["c"] = local
			g.noteCover(src, "a", "c", wal.Position{Gen: 1})
			for i := int64(1); i <= 3; i++ {
				g.coverSkip("c", origin(i), at(10+i))
			}
			switch loss {
			case "stream ends":
				g.originLost("a", src)
			case "prober declares A dead":
				g.originLost("a", nil)
			default:
				g.noteCover(src, "a", "c", wal.Position{Gen: coverNotFollowing})
			}
			if _, err := local.Write([]byte{0}); err == nil {
				t.Error("the stream to C was not severed")
			}
			resume, seq := g.takeRewind("c", at(40))
			if resume != at(10) {
				t.Errorf("the next stream to C resumes at %+v, want %+v, just before the first pending record", resume, at(10))
			}
			if got := pending(g); len(got) != 0 {
				t.Errorf("pending after the rewind: %+v", got)
			}
			if g.coverSkip("c", origin(4), at(14)) {
				t.Error("a record was passed over after its origin stopped covering C")
			}
			g.rewindDone("c", seq)
			if again, _ := g.takeRewind("c", at(40)); again != at(40) {
				t.Errorf("a rewind the new stream's first ack settled still lowers the resume to %+v", again)
			}
		})
	}

	t.Run("a boot mismatch relays", func(t *testing.T) {
		g, src := coverGroup(t)
		g.noteCover(src, "a", "c", wal.Position{Gen: 1, Records: 9})
		e := origin(1)
		e.boot = 8 // shown by A's previous incarnation
		if g.coverSkip("c", e, at(11)) {
			t.Error("a record from another incarnation of A was passed over")
		}
	})

	t.Run("a relay-flagged entry is never cover-skipped", func(t *testing.T) {
		g, src := coverGroup(t)
		g.noteCover(src, "a", "c", wal.Position{Gen: 1, Records: 9})
		e := origin(1)
		e.origin = false
		if g.coverSkip("c", e, at(11)) {
			t.Error("a record A relayed was passed over on A's cover")
		}
		if g.coverSkip("a", origin(1), at(11)) {
			t.Error("a record was passed over on its origin's cover of itself")
		}
	})

	t.Run("nothing at or before the target is skipped", func(t *testing.T) {
		g, src := coverGroup(t)
		g.noteCover(src, "a", "c", wal.Position{Gen: 1, Records: 9})
		g.stamps.note(stamped(1, 1), origin(1), nil)
		g.stamps.note(stamped(1, 2), origin(2), nil)
		pm := &pump{peer: "c", boot: 9, target: at(11)}
		if pass, _ := g.passOver(pm, stamped(1, 1), at(11)); pass {
			t.Error("the record at the target was passed over")
		}
		if pass, _ := g.passOver(pm, stamped(1, 2), at(12)); !pass {
			t.Error("a covered record after the target was sent")
		}
		// Nobody showed us record (2, 1): it is ours, unless it predates
		// what the table can vouch for.
		g.stamps.forgetThrough(at(12))
		if pass, own := g.passOver(pm, stamped(2, 1), at(13)); pass || !own {
			t.Errorf("our own record after the watermark: pass %v own %v, want sent as origin", pass, own)
		}
		if _, own := g.passOver(pm, stamped(2, 1), at(12)); own {
			t.Error("a record at the watermark was flagged as ours")
		}
	})

	t.Run("a full pending list relays", func(t *testing.T) {
		g, src := coverGroup(t)
		g.noteCover(src, "a", "c", wal.Position{Gen: 1})
		for i := int64(1); i <= pendingMax; i++ {
			if !g.coverSkip("c", origin(i), wal.Position{Gen: 3, Records: i}) {
				t.Fatalf("record %d relayed with room in the list", i)
			}
		}
		if g.coverSkip("c", origin(pendingMax+1), wal.Position{Gen: 3, Records: pendingMax + 1}) {
			t.Error("a record was queued on a full pending list")
		}
	})
}

// The pump's reconnect backoff starts over once a stream has registered:
// a replica's sixth outage waits as briefly as its first.
func TestPumpBackoffResetsAfterRegistration(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replica harness")
	}
	addrs, fleet := startFleet(t, func() *core.Result { r, _ := catchupSplit(t); return r }, 2)
	g, peer := fleet[0].g, addrs[1]
	registered := func(old net.Conn) bool {
		g.pumpMu.Lock()
		c := g.pumpConns[peer]
		g.pumpMu.Unlock()
		found := false
		g.tracker.Each(func(p string, _ wal.Position) { found = found || p == peer })
		return c != nil && c != old && found
	}
	for i := 1; i <= 6; i++ {
		g.pumpMu.Lock()
		old := g.pumpConns[peer]
		g.pumpMu.Unlock()
		if old == nil {
			t.Fatalf("sever %d: no stream to sever", i)
		}
		start := time.Now()
		old.Close()
		for !registered(old) {
			if time.Since(start) > 5*time.Second {
				t.Fatalf("sever %d: the stream never came back", i)
			}
			time.Sleep(time.Millisecond)
		}
		if took, limit := time.Since(start), 4*pumpBackoffMin; took > limit {
			t.Errorf("sever %d: re-registered after %v, want within %v", i, took.Round(time.Millisecond), limit)
		}
	}
}

// A replication handshake of another protocol version is refused on both
// sides, with an error that names both versions.
func TestReplHandshakeVersionMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replica harness")
	}
	addrs, fleet := startFleet(t, func() *core.Result { r, _ := catchupSplit(t); return r }, 1)

	// A sender of version 1 against this replica.
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := hrt.WriteRequest(conn, hrt.Request{Op: hrt.OpRepl, Fn: "old-replica", Session: 5, Frag: 1}); err != nil {
		t.Fatal(err)
	}
	resp, err := hrt.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if want := (&hrt.ReplVersionError{Local: hrt.ReplProtoVersion, Remote: 1}).Error(); resp.Err != want {
		t.Errorf("the replica answered a version-1 sender with %q, want %q", resp.Err, want)
	}
	fleet[0].g.recvMu.Lock()
	in := fleet[0].g.recv["old-replica"]
	opened := in != nil && in.open > 0
	fleet[0].g.recvMu.Unlock()
	if opened {
		t.Error("the refused sender got a replication stream")
	}

	// This replica's pump against a receiver that answers with version 1.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		r := bufio.NewReader(c)
		if _, err := hrt.ReadRequest(r); err == nil {
			hrt.WriteResponse(c, hrt.Response{Val: interp.IntV(1)})
		}
		io.Copy(io.Discard, r)
	}()
	pc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	registered, err := fleet[0].g.streamTo(ln.Addr().String(), pc, nil)
	var ve *hrt.ReplVersionError
	if registered || !errors.As(err, &ve) || ve.Local != hrt.ReplProtoVersion || ve.Remote != 1 {
		t.Errorf("the pump met a version-1 receiver with registered=%v, %v; want a ReplVersionError{%d, 1}", registered, err, hrt.ReplProtoVersion)
	}
}

// dialSeam is a fleet's injected network: per replica, a set of addresses
// it cannot reach, and the connections it opened, so one can be stalled.
type dialSeam struct {
	mu    sync.Mutex
	cut   map[[2]string]bool
	conns map[string][]*stallConn // by dialler
}

func newDialSeam() *dialSeam {
	return &dialSeam{cut: make(map[[2]string]bool), conns: make(map[string][]*stallConn)}
}

func (d *dialSeam) dialer(self string) func(string, string, time.Duration) (net.Conn, error) {
	return func(network, addr string, timeout time.Duration) (net.Conn, error) {
		d.mu.Lock()
		cut := d.cut[[2]string{self, addr}]
		d.mu.Unlock()
		if cut {
			return nil, errors.New("partitioned")
		}
		c, err := net.DialTimeout(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		sc := &stallConn{Conn: c}
		d.mu.Lock()
		d.conns[self] = append(d.conns[self], sc)
		d.mu.Unlock()
		return sc, nil
	}
}

// partition cuts a and b off from each other, both ways.
func (d *dialSeam) partition(a, b string) {
	d.mu.Lock()
	d.cut[[2]string{a, b}], d.cut[[2]string{b, a}] = true, true
	d.mu.Unlock()
}

// stallConn swallows every write once stalled: the sender believes the
// frames went out, and the receiver never sees them.
type stallConn struct {
	net.Conn
	stalled atomic.Bool
}

func (c *stallConn) Write(b []byte) (int, error) {
	if c.stalled.Load() {
		return len(b), nil
	}
	return c.Conn.Write(b)
}

// severPump closes r's replication stream to peer.
func severPump(r *catchupReplica, peer string) {
	r.g.pumpMu.Lock()
	if c := r.g.pumpConns[peer]; c != nil {
		c.Close()
	}
	r.g.pumpMu.Unlock()
}

// A's stream to C stalls while A serves load, so A's cover of C stops
// short of everything A executes afterwards and B holds those records
// pending; then A dies. B's rewind is what brings them to C.
func TestCoverRewindAfterOriginStallsAndDies(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replica harness")
	}
	_, initFrag := catchupSplit(t)
	seam := newDialSeam()
	addrs, fleet := startFleetWith(t, func() *core.Result { r, _ := catchupSplit(t); return r }, 3, func(i int, cfg *Config) {
		cfg.Dial = seam.dialer(cfg.Self)
		cfg.CommitTimeout = 250 * time.Millisecond
	})
	a, b, c := fleet[0], fleet[1], fleet[2]
	before, after := ownedBy(addrs, addrs[0], 1000), ownedBy(addrs, addrs[0], 2000)
	runSession(t, addrs, before, initFrag, 10)

	a.g.pumpMu.Lock()
	toC, _ := a.g.pumpConns[addrs[2]].(*stallConn)
	a.g.pumpMu.Unlock()
	if toC == nil {
		t.Fatal("A has no stream to C")
	}
	toC.stalled.Store(true)
	runSession(t, addrs, after, initFrag, 8)
	a.stop()

	survivors := []*catchupReplica{b, c}
	waitFleetReady(t, survivors...)
	waitConverged(t, survivors, 11+9)
	if b.g.rewinds.Load() == 0 {
		t.Error("B never rewound its stream to C, so this test did not exercise the rewind")
	}
}

// A and C lose each other while both stay up and A keeps serving: A's
// records reach C through B, within the commit timeout of the load ending.
func TestCoverPartitionRelaysThroughSurvivor(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replica harness")
	}
	_, initFrag := catchupSplit(t)
	seam := newDialSeam()
	addrs, fleet := startFleetWith(t, func() *core.Result { r, _ := catchupSplit(t); return r }, 3, func(i int, cfg *Config) {
		cfg.Dial = seam.dialer(cfg.Self)
	})
	a, c := fleet[0], fleet[2]
	session := ownedBy(addrs, addrs[0], 1000)
	runSession(t, addrs, session, initFrag, 10)

	seam.partition(addrs[0], addrs[2])
	severPump(a, addrs[2])
	severPump(c, addrs[0])
	second := ownedBy(addrs, addrs[0], session+1)
	runSession(t, addrs, second, initFrag, 15)
	records := 11 + 16
	done := time.Now()
	waitUntil(t, c.g.cfg.CommitTimeout, "C to hold every record A executed", func() bool {
		_, n := c.ts.Persist.CurrentPosition()
		return n == int64(records) && c.ts.Server.Stats() == a.ts.Server.Stats()
	})
	t.Logf("C converged %v after the load ended", time.Since(done).Round(time.Millisecond))
	for stamp, n := range journalStamps(t, c.ts.Persist) {
		if n != 1 {
			t.Errorf("C holds stamp %v %d times", stamp, n)
		}
	}
}
