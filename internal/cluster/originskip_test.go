package cluster

// Origin skip: a pump does not ship a record back to the peer incarnation
// that showed it to us. These tests run real fleets over loopback and read
// the outcome off the replicas' own journals and frame counters, which is
// exact: every journal holds every logical record once, every pump goes
// over its journal once, and each record it goes over is either sent (the
// peer counts a frame received) or passed over (the sender counts a skip).

import (
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"slicehide/internal/core"
	"slicehide/internal/hrt"
	"slicehide/internal/interp"
	"slicehide/internal/obs"
	"slicehide/internal/wal"
)

// startFleet boots an n-replica fleet on fresh directories and waits for
// every member to be ready, so that every stream has announced its (empty)
// catch-up target before any record exists. No snapshot ever triggers:
// generation 0 holds a replica's whole history.
func startFleet(t *testing.T, res func() *core.Result, n int) ([]string, []*catchupReplica) {
	return startFleetWith(t, res, n, nil)
}

// startFleetWith is startFleet with a hook that adjusts each member's
// configuration before it starts.
func startFleetWith(t *testing.T, res func() *core.Result, n int, adjust func(i int, cfg *Config)) ([]string, []*catchupReplica) {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		// A port freed by deadAddr can come straight back from the next call.
		for addrs[i] == "" || slices.Contains(addrs[:i], addrs[i]) {
			addrs[i] = deadAddr(t)
		}
	}
	fleet := make([]*catchupReplica, n)
	for i, addr := range addrs {
		cfg := Config{Self: addr, Peers: addrs}
		if adjust != nil {
			adjust(i, &cfg)
		}
		fleet[i] = startReplica(t, res(), t.TempDir(), addr, cfg, 1<<20)
	}
	t.Cleanup(func() {
		for _, r := range fleet {
			r.stop()
		}
	})
	waitFleetReady(t, fleet...)
	return addrs, fleet
}

func waitFleetReady(t *testing.T, fleet ...*catchupReplica) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for _, r := range fleet {
		for {
			ok, reason := r.g.Ready()
			if ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %s never became ready: %s", r.g.cfg.Self, reason)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// ownedBy returns the first session id at or after from that the fleet
// places on owner.
func ownedBy(addrs []string, owner string, from uint64) uint64 {
	for id := from; ; id++ {
		if Owner(id, addrs) == owner {
			return id
		}
	}
}

// runSession opens session on its owner and makes calls hidden calls: one
// journal record for the enter and one per call.
func runSession(t *testing.T, addrs []string, session uint64, initFrag, calls int) {
	t.Helper()
	rt, err := hrt.DialMux(hrt.MuxConfig{
		Addr:    Owner(session, addrs),
		Timeout: 5 * time.Second,
		Policy:  hrt.RetryPolicy{Retries: 40, BackoffBase: 2 * time.Millisecond, BackoffMax: 50 * time.Millisecond},
	})
	if err != nil {
		t.Error(err)
		return
	}
	defer rt.Close()
	sess := &hrt.Session{T: rt.Stream(session, nil)}
	inst, err := sess.Enter("f", 0)
	if err != nil {
		t.Error(err)
		return
	}
	for i := 0; i < calls; i++ {
		if _, err := sess.Call("f", inst, initFrag, []interp.Value{interp.IntV(int64(i))}); err != nil {
			t.Error(err)
			return
		}
	}
}

// journalStamps reads every record a replica holds and counts the
// (session, seq) stamps: the exactly-once invariant says every count is 1,
// and a session's largest seq is the replay high-water mark a restart
// would recover.
func journalStamps(t *testing.T, p *hrt.Durability) map[[2]uint64]int {
	t.Helper()
	gens, err := p.Generations()
	if err != nil {
		t.Fatal(err)
	}
	stamps := make(map[[2]uint64]int)
	for _, gen := range gens {
		tail, err := wal.OpenTail(p.JournalFile(gen), 0)
		if err != nil {
			t.Fatal(err)
		}
		for {
			payload, err := tail.Next()
			if err != nil {
				break
			}
			session, seq, ok := hrt.RecordStamp(payload)
			if !ok {
				t.Fatalf("generation %d holds a %d-byte record with no stamp", gen, len(payload))
			}
			stamps[[2]uint64{session, seq}]++
		}
		tail.Close()
	}
	return stamps
}

// waitConverged waits for every replica to hold records logical records
// with nothing left in flight, then checks the fleet-wide invariants: equal
// execution tallies, equal journals with every stamp exactly once, no lag.
func waitConverged(t *testing.T, fleet []*catchupReplica, records int) {
	t.Helper()
	waitUntil(t, 20*time.Second, "the fleet to converge", func() bool {
		for _, r := range fleet {
			if _, n := r.ts.Persist.CurrentPosition(); n != int64(records) || r.g.Lag() != 0 {
				return false
			}
			if r.ts.Server.Stats() != fleet[0].ts.Server.Stats() {
				return false
			}
		}
		return true
	})
	want := journalStamps(t, fleet[0].ts.Persist)
	if len(want) != records {
		t.Fatalf("replica 0 journaled %d distinct stamps, want %d", len(want), records)
	}
	for i, r := range fleet {
		got := journalStamps(t, r.ts.Persist)
		if len(got) != len(want) {
			t.Errorf("replica %d journaled %d distinct stamps, replica 0 %d", i, len(got), len(want))
		}
		for stamp, n := range got {
			if n != 1 || want[stamp] != 1 {
				t.Errorf("replica %d holds stamp %v %d time(s) (replica 0: %d), want exactly once everywhere",
					i, stamp, n, want[stamp])
			}
		}
		if ok, reason := r.g.Ready(); !ok {
			t.Errorf("replica %d not ready after convergence: %s", i, reason)
		}
	}
}

func frames(fleet []*catchupReplica) (received, skipped int64) {
	for _, r := range fleet {
		received += r.g.replReceived.Load()
		skipped += r.g.replSkipped.Load()
	}
	return received, skipped
}

// In a fleet of two the stream that delivered a record is unambiguous, so
// the skip is exact: each replica receives precisely the records the other
// executed, and passes over precisely the ones it received.
func TestOriginSkipNothingTravelsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replica harness")
	}
	_, initFrag := catchupSplit(t)
	addrs, fleet := startFleet(t, func() *core.Result { r, _ := catchupSplit(t); return r }, 2)
	const calls = 40
	perOwner := []int{3, 2} // sessions homed on replica 0 and on replica 1
	var wg sync.WaitGroup
	for i, n := range perOwner {
		next := uint64(1000 * (i + 1))
		for s := 0; s < n; s++ {
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
	executed := []int64{int64(perOwner[0] * (calls + 1)), int64(perOwner[1] * (calls + 1))}
	waitConverged(t, fleet, int(executed[0]+executed[1]))
	for i, r := range fleet {
		other := 1 - i
		if got := r.g.replReceived.Load(); got != executed[other] {
			t.Errorf("replica %d received %d record frames, want exactly the %d its peer executed (the rest are its own, sent back)",
				i, got, executed[other])
		}
		if got := r.g.replSkipped.Load(); got != executed[other] {
			t.Errorf("replica %d passed over %d records, want the %d its peer showed it", i, got, executed[other])
		}
	}
}

// Three replicas under concurrent load from every owner. Which of a
// record's two routes reaches a replica first is a race, so the count of
// frames is not fixed — but every replica that applied a record had it
// delivered by some stream, and owes that stream's origin a skip: at least
// one skip per record per non-executing replica, and every record a pump
// went over was either counted as a frame by its peer or as a skip here.
func TestOriginSkipSteadyLoad(t *testing.T) {
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

	received, skipped := frames(fleet)
	pumps := int64(len(addrs) * (len(addrs) - 1))
	if received+skipped != pumps*records {
		t.Errorf("%d frames received + %d records passed over = %d, want %d pumps x %d records = %d",
			received, skipped, received+skipped, pumps, records, pumps*records)
	}
	for i, r := range fleet {
		// A replica executed a third of the records; the rest reached it
		// over a stream, each worth at least one skip.
		if got, atLeast := r.g.replSkipped.Load(), records-records/int64(len(addrs)); got < atLeast {
			t.Errorf("replica %d passed over %d records, want at least the %d it was shown", i, got, atLeast)
		}
	}
}

// A replica that comes back on an empty data directory is a new
// incarnation: what its previous life showed the survivors must not be
// withheld from it, including the sessions it used to own.
func TestOriginSkipRestartOnEmptyDir(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replica harness")
	}
	_, initFrag := catchupSplit(t)
	addrs, fleet := startFleet(t, func() *core.Result { r, _ := catchupSplit(t); return r }, 3)
	const calls = 20
	var sessions []uint64
	for i := range addrs {
		sessions = append(sessions, ownedBy(addrs, addrs[i], uint64(1000*(i+1))))
	}
	for _, session := range sessions {
		runSession(t, addrs, session, initFrag, calls)
	}
	records := len(sessions) * (calls + 1)
	waitConverged(t, fleet, records)
	oldBoot := fleet[0].g.boot

	// Replica 0 dies and loses its disk. The survivors' tables are full of
	// records its old incarnation showed them.
	fleet[0].stop()
	res, _ := catchupSplit(t)
	fleet[0] = startReplica(t, res, t.TempDir(), addrs[0], Config{Self: addrs[0], Peers: addrs}, 1<<20)
	if fleet[0].g.boot == oldBoot {
		t.Fatal("the restarted replica drew its previous boot id")
	}
	waitFleetReady(t, fleet...)
	waitConverged(t, fleet, records)
	if got := journalStamps(t, fleet[0].ts.Persist); len(got) != records {
		t.Errorf("restarted replica holds %d records, want all %d back", len(got), records)
	}
}

// A peer that answers the handshake with boot 0 — one from before the
// exchange existed — is never skipped for, while it may still skip for us.
func TestOriginSkipBootZeroPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replica harness")
	}
	_, initFrag := catchupSplit(t)
	addrs := []string{deadAddr(t), deadAddr(t)}
	fleet := make([]*catchupReplica, 2)
	for i, addr := range addrs {
		res, _ := catchupSplit(t)
		fleet[i] = startReplicaWith(t, res, t.TempDir(), addr, Config{Self: addr, Peers: addrs}, 1<<20,
			func(ts *hrt.TCPServer) {
				if i == 1 {
					ts.ReplBoot = 0
				}
			})
		defer fleet[i].stop()
	}
	waitFleetReady(t, fleet...)
	const calls = 25
	runSession(t, addrs, ownedBy(addrs, addrs[0], 1000), initFrag, calls)
	runSession(t, addrs, ownedBy(addrs, addrs[1], 2000), initFrag, calls)
	each := int64(calls + 1)
	waitConverged(t, fleet, int(2*each))
	if got := fleet[0].g.replSkipped.Load(); got != 0 {
		t.Errorf("replica 0 passed over %d records for a peer that stated no boot id, want 0", got)
	}
	if got := fleet[1].g.replReceived.Load(); got != 2*each {
		t.Errorf("the boot-0 peer received %d frames, want all %d (its own %d sent back as before)", got, 2*each, each)
	}
	if got := fleet[0].g.replReceived.Load(); got != each {
		t.Errorf("replica 0 received %d frames, want only the %d its peer executed", got, each)
	}
}

// A receiver's applied position only advances on frames it receives, so a
// stream whose announced target ends in a run of records the receiver
// itself showed us must still send them: passing them over leaves the
// receiver short of the target, not ready, forever. With a rotation right
// after the run the target reads (G+1, 0) and is reached through the seal.
func TestOriginSkipTargetEndsInSkippableRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replica harness")
	}
	for _, rotate := range []bool{false, true} {
		name := "target inside the generation"
		if rotate {
			name = "rotation right after the run"
		}
		t.Run(name, func(t *testing.T) {
			_, initFrag := catchupSplit(t)
			addrs, fleet := startFleet(t, func() *core.Result { r, _ := catchupSplit(t); return r }, 2)
			// Everything executes on replica 1, so replica 0's whole journal
			// is records replica 1 showed it, and its pump sends nothing.
			const calls = 12
			runSession(t, addrs, ownedBy(addrs, addrs[1], 1000), initFrag, calls)
			waitConverged(t, fleet, calls+1)
			if got := fleet[1].g.replReceived.Load(); got != 0 {
				t.Fatalf("replica 1 received %d frames of its own records before the reconnect", got)
			}
			if rotate {
				if err := fleet[0].ts.Persist.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			// Sever replica 0's stream. The new one resumes where replica 1's
			// applied position stands — nowhere, every record was passed
			// over — and announces replica 0's journal end as its target.
			fleet[0].g.pumpMu.Lock()
			conn := fleet[0].g.pumpConns[addrs[1]]
			fleet[0].g.pumpMu.Unlock()
			if conn == nil {
				t.Fatal("replica 0 has no stream to replica 1")
			}
			conn.Close()
			waitUntil(t, 10*time.Second, "the re-streamed records to arrive", func() bool {
				return fleet[1].g.replReceived.Load() >= calls+1
			})
			waitFleetReady(t, fleet...)
			for i, r := range fleet {
				if lag := r.g.Lag(); lag != 0 {
					t.Errorf("replica %d reports %d records of lag on an idle, ready fleet", i, lag)
				}
			}
			if rotate {
				if gen, n := fleet[0].ts.Persist.CurrentPosition(); gen != 1 || n != 0 {
					t.Errorf("replica 0 stands at (%d,%d), want (1,0) right after the rotation", gen, n)
				}
			}
		})
	}
}

// The stamp table forgets its oldest entries first, and a forgotten entry
// reads exactly like one never noted: the record is relayed. Nothing the
// table was not told can make it answer, and a peer with no boot id or a
// payload too short to carry a stamp is never noted.
func TestOriginSkipTableForgets(t *testing.T) {
	const size, extra = 64, 10
	tbl := newStampTable(size)
	key := func(i int) []byte { return stamped(uint64(i)+1, uint64(i)*3) }
	shown := stampEntry{sender: "peer", boot: 7}
	journal := wal.Position{Gen: 2, Records: 40}
	now := func() wal.Position { return journal }
	for i := 0; i < size+extra; i++ {
		tbl.note(key(i), shown, now)
		tbl.note(key(i), shown, now) // a duplicate frame takes no second slot
	}
	for i := 0; i < size+extra; i++ {
		if _, got := tbl.lookup(key(i)); got != (i >= extra) {
			t.Errorf("entry %d of %d in a table of %d: noted = %v, want %v", i, size+extra, size, got, i >= extra)
		}
	}
	if len(tbl.m) != size || len(tbl.ring) != size {
		t.Errorf("table holds %d keys in %d slots, want %d", len(tbl.m), len(tbl.ring), size)
	}
	if e, ok := tbl.lookup(key(size)); !ok || e != shown {
		t.Errorf("a noted record reads back as %+v (%v), want %+v", e, ok, shown)
	}
	for _, other := range [][]byte{stamped(uint64(size)+1, uint64(size)*3+1), stamped(uint64(size)+1+1<<32, uint64(size)*3)} {
		if _, ok := tbl.lookup(other); ok {
			t.Errorf("table answers for %x, which it was never told", other)
		}
	}
	// Forgetting moved the watermark: our records up to the journal position
	// at the time may have lost their entries, so none of them reads as ours.
	if tbl.ownRecord(journal) || !tbl.ownRecord(wal.Position{Gen: 2, Records: 41}) {
		t.Error("records at or before the position where the table forgot must not read as our own, later ones must")
	}

	tbl.note(stamped(5, 5), stampEntry{sender: "old", boot: 0}, now)
	if _, ok := tbl.lookup(stamped(5, 5)); ok {
		t.Error("a record shown by a peer that stated no boot id was noted")
	}
	tbl.note(key(size)[:17], shown, now)
	if _, ok := tbl.lookup(key(size)[:17]); ok {
		t.Error("a payload too short for a stamp was noted")
	}
}

// TestLiftOrder pins the rotation lift. The ack of a generation's last
// record and the pump's discovery that the generation sealed there race;
// whichever comes second must leave the follower on (G+1, 0). Done as two
// unordered halves on each side — lift the value, then store it — the
// order "reader lifts (nothing to lift yet), pump seals and lifts the
// stored ack (still one short), reader stores" loses the lift: Lag reports
// a phantom records+1 and /readyz says "catching up" on an idle fleet.
func TestLiftOrder(t *testing.T) {
	const peer = "follower"
	last, next := wal.Position{Gen: 4, Records: 9}, wal.Position{Gen: 5}
	setup := func() (*wal.OffsetTracker, *ackLift) {
		tr := wal.NewOffsetTracker()
		tr.RegisterAt(peer, wal.Position{Gen: 4, Records: 8})
		return tr, new(ackLift)
	}

	tr, lift := setup()
	lift.ack(tr, peer, last)        // the reader's half, whole
	lift.pass(tr, peer, last, next) // then the pump's
	if got := tr.Acked(peer); got != next {
		t.Errorf("ack then seal: follower on %+v, want %+v", got, next)
	}
	tr, lift = setup()
	lift.pass(tr, peer, last, next)
	if got := tr.Acked(peer); got != (wal.Position{Gen: 4, Records: 8}) {
		t.Errorf("seal before the last ack lifted the follower to %+v", got)
	}
	lift.ack(tr, peer, last)
	if got := tr.Acked(peer); got != next {
		t.Errorf("seal then ack: follower on %+v, want %+v", got, next)
	}

	// Both at once, as the ack reader and the pump run them.
	for i := 0; i < 2000; i++ {
		tr, lift := setup()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); lift.ack(tr, peer, last) }()
		go func() { defer wg.Done(); lift.pass(tr, peer, last, next) }()
		wg.Wait()
		if got := tr.Acked(peer); got != next {
			t.Fatalf("round %d: follower left on %+v, want %+v", i, got, next)
		}
	}
}

// Lifting across passed-over records: runs merge, an ack short of a run
// waits, an ack at its start is carried across it (and across a seal that
// follows directly), and steps the follower is already past are dropped.
func TestLiftAcrossSkippedRecords(t *testing.T) {
	const peer = "follower"
	at := func(gen uint64, n int64) wal.Position { return wal.Position{Gen: gen, Records: n} }
	tr := wal.NewOffsetTracker()
	tr.RegisterAt(peer, at(0, 2))
	lift := new(ackLift)

	// Records 3 and 4 are in flight; 5, 6, 7 passed over; 8 sent; 9 passed
	// over; the generation seals at 9.
	for _, i := range []int64{5, 6, 7} {
		lift.pass(tr, peer, at(0, i-1), at(0, i))
	}
	lift.pass(tr, peer, at(0, 8), at(0, 9))
	lift.pass(tr, peer, at(0, 9), at(1, 0))
	if got := len(lift.steps) - lift.head; got != 2 {
		t.Errorf("%d pending steps, want 2 (adjacent ones merged)", got)
	}
	if got := tr.Acked(peer); got != at(0, 2) {
		t.Fatalf("follower lifted to %+v with records 3 and 4 unacknowledged", got)
	}
	lift.ack(tr, peer, at(0, 3))
	if got := tr.Acked(peer); got != at(0, 3) {
		t.Errorf("ack of 3: follower on %+v", got)
	}
	lift.ack(tr, peer, at(0, 4))
	if got := tr.Acked(peer); got != at(0, 7) {
		t.Errorf("ack of 4: follower on %+v, want lifted across 5-7", got)
	}
	lift.ack(tr, peer, at(0, 8))
	if got := tr.Acked(peer); got != at(1, 0) {
		t.Errorf("ack of 8: follower on %+v, want lifted across 9 and the seal", got)
	}
	if lift.head != 0 || len(lift.steps) != 0 {
		t.Errorf("steps left behind: %+v from %d", lift.steps, lift.head)
	}

	// A follower already past a step (its ack outran the pump's bookkeeping)
	// is not dragged back, and the stale step goes away.
	lift.ack(tr, peer, at(1, 6))
	lift.pass(tr, peer, at(1, 2), at(1, 3))
	if got := tr.Acked(peer); got != at(1, 6) || lift.head != len(lift.steps) {
		t.Errorf("stale step: follower on %+v, %d steps pending", got, len(lift.steps)-lift.head)
	}

	// A lagging follower leaves steps pending; they are reclaimed as it
	// catches up rather than kept forever.
	for i := int64(10); i < 1000; i += 2 {
		lift.pass(tr, peer, at(1, i-1), at(1, i))
	}
	for i := int64(9); i < 1000; i += 2 {
		lift.ack(tr, peer, at(1, i))
		if want := at(1, min(i+1, 998)); i < 999 && tr.Acked(peer) != want {
			t.Fatalf("ack of %d: follower on %+v, want %+v", i, tr.Acked(peer), want)
		}
	}
	if cap(lift.steps) > 1024 || lift.head != len(lift.steps) {
		t.Errorf("after catching up: %d steps pending in a slice of %d", len(lift.steps)-lift.head, cap(lift.steps))
	}
}

// The frame writer re-arms the write deadline a few times per timeout, not
// per frame, and a cleared deadline is re-armed by the next frame.
func TestReplStreamArmsDeadlineLazily(t *testing.T) {
	local, remote := newCountingPipe(t)
	st := (&Group{cfg: Config{CommitTimeout: 200 * time.Millisecond}}).newReplStream(local)
	go func() {
		for {
			if _, err := hrt.ReadReplFrame(remote); err != nil {
				return
			}
		}
	}()
	frame := hrt.ReplFrame{Type: hrt.ReplFrameAck, Gen: 1, Index: 1}
	for i := 0; i < 100; i++ {
		if err := st.send(frame); err != nil {
			t.Fatal(err)
		}
	}
	if got := local.deadlines; got != 1 {
		t.Errorf("100 frames in quick succession set the write deadline %d times, want once", got)
	}
	st.disarm()
	if err := st.send(frame); err != nil {
		t.Fatal(err)
	}
	if got := local.deadlines; got != 2 {
		t.Errorf("the frame after a disarm set the deadline %d times in total, want 2", got)
	}
	time.Sleep(60 * time.Millisecond) // past a quarter of the timeout
	if err := st.send(frame); err != nil {
		t.Fatal(err)
	}
	if got := local.deadlines; got != 3 {
		t.Errorf("a frame a quarter-timeout later: deadline set %d times in total, want 3", got)
	}
}

// A frame on the streaming path — deadline check, head, payload, flush —
// allocates nothing, over the kind of connection the fleet uses.
func TestReplStreamSendAllocatesNothing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if c, err := ln.Accept(); err == nil {
			io.Copy(io.Discard, c)
			c.Close()
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	st := (&Group{cfg: Config{CommitTimeout: time.Minute}}).newReplStream(conn)
	record := hrt.ReplFrame{Type: hrt.ReplFrameRecord, Gen: 2, Index: 5, Payload: make([]byte, 87)}
	ack := hrt.ReplFrame{Type: hrt.ReplFrameAck, Gen: 2, Index: 5}
	allocs := testing.AllocsPerRun(200, func() {
		if st.send(record) != nil || st.send(ack) != nil {
			t.Fatal("send failed")
		}
	})
	if allocs != 0 {
		t.Errorf("a record frame plus an ack frame cost %.1f allocations, want 0", allocs)
	}
}

// countingConn counts the write deadlines set on one end of a pipe.
type countingConn struct {
	net.Conn
	deadlines int
}

func (c *countingConn) SetWriteDeadline(t time.Time) error {
	c.deadlines++
	return c.Conn.SetWriteDeadline(t)
}

func newCountingPipe(t *testing.T) (*countingConn, net.Conn) {
	local, remote := net.Pipe()
	t.Cleanup(func() {
		local.Close()
		remote.Close()
	})
	return &countingConn{Conn: local}, remote
}

// startReplica boots one durable fleet member with its group wired in, the
// same assembly the daemon performs.
func startReplica(t *testing.T, res *core.Result, dir, listen string, cfg Config, snapshotEvery int) *catchupReplica {
	return startReplicaWith(t, res, dir, listen, cfg, snapshotEvery, nil)
}

// startReplicaWith additionally lets the test adjust the server after the
// group installed its hooks and before the listener opens.
func startReplicaWith(t *testing.T, res *core.Result, dir, listen string, cfg Config, snapshotEvery int, adjust func(*hrt.TCPServer)) *catchupReplica {
	t.Helper()
	tracer := obs.NewTracer(obs.TracerConfig{Level: obs.LevelDebug})
	cfg.Tracer = tracer
	cfg.Replicate = true
	cfg.MembershipPath = MembershipPath(dir)
	if cfg.SnapChunk == 0 {
		cfg.SnapChunk = 64
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 50 * time.Millisecond
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 250 * time.Millisecond
	}
	if cfg.CommitTimeout == 0 {
		cfg.CommitTimeout = time.Second
	}
	ts := &hrt.TCPServer{
		Server: hrt.NewServer(hrt.NewRegistry(res)),
		Tracer: tracer,
		Persist: hrt.NewDurability(hrt.DurabilityOptions{
			Dir:           dir,
			SnapshotEvery: snapshotEvery,
			Tracer:        tracer,
		}),
	}
	g, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	if adjust != nil {
		adjust(ts)
	}
	if _, err := ts.ListenAndServe(listen); err != nil {
		t.Fatal(err)
	}
	g.Start()
	return &catchupReplica{ts: ts, g: g}
}
