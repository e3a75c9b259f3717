package cluster

import (
	"math"
	"sync"

	"slicehide/internal/hrt"
	"slicehide/internal/obs"
	"slicehide/internal/wal"
)

// Origin cover: a replica relays a record only where its origin cannot be
// relied on to deliver it. Origin A flags the records it executed and
// tells each follower how far every other follower C has acknowledged its
// stream; relayer B passes over A's records toward C while A's stream is
// live and A follows C, queueing those A's cover has not reached yet, and
// rewinds its stream to C over the queue when A dies or stops following C.
// DESIGN.md ("Origin cover") has the safety argument.

// stampTableSize bounds the stamp table: an entry need only outlive the
// gap between a record's arrival and the pumps reading it back out of the
// journal, and a forgotten one costs a duplicate frame, nothing else.
const stampTableSize = 8192

// pendingMax bounds one (origin, peer) pending list.
const pendingMax = 1024

// coverNotFollowing is the Gen of a cover saying the origin no longer
// follows the named peer.
const coverNotFollowing = math.MaxUint64

// stampKey names a journal record by its (session, seq) stamp.
type stampKey struct{ session, seq uint64 }

// stampEntry says who showed us a record: the peer at sender, in its
// process incarnation boot, read it out of its journal at pos; origin says
// the sender executed it itself.
type stampEntry struct {
	sender string
	boot   uint64
	pos    wal.Position
	origin bool
}

// stampTable maps record stamps to the peer that showed us each record,
// oldest forgotten first; a record with no entry is never passed over. Our
// journal's records at or before unknownThrough may have lost their entry
// (they predate this process, or the table forgot them), so none of them
// is flagged as our own.
type stampTable struct {
	mu             sync.Mutex
	ring           []stampKey // insertion order, ring[next] the oldest once full
	next           int
	m              map[stampKey]stampEntry
	unknownThrough wal.Position
}

func newStampTable(size int) *stampTable {
	return &stampTable{ring: make([]stampKey, 0, size), m: make(map[stampKey]stampEntry, size)}
}

// note records that e showed us the record in payload; an origin entry
// replaces a relay entry, otherwise the first stays. Boot 0 (a peer that
// states no boot id) and a payload too short for a stamp are never noted.
// now, our journal position, is read when the table forgets an entry.
func (t *stampTable) note(payload []byte, e stampEntry, now func() wal.Position) {
	session, seq, ok := hrt.RecordStamp(payload)
	if !ok || e.boot == 0 {
		return
	}
	k := stampKey{session, seq}
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, ok := t.m[k]; ok {
		if e.origin && !old.origin {
			t.m[k] = e
		}
		return
	}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, k)
	} else {
		delete(t.m, t.ring[t.next])
		t.ring[t.next] = k
		t.next = (t.next + 1) % len(t.ring)
		t.unknownThrough = now()
	}
	t.m[k] = e
}

// lookup returns the entry for the journal record in payload.
func (t *stampTable) lookup(payload []byte) (stampEntry, bool) {
	session, seq, ok := hrt.RecordStamp(payload)
	if !ok {
		return stampEntry{}, false
	}
	t.mu.Lock()
	e, ok := t.m[stampKey{session, seq}]
	t.mu.Unlock()
	return e, ok
}

// ownRecord reports whether our journal's record at pos, which has no
// entry, is one we executed.
func (t *stampTable) ownRecord(pos wal.Position) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.unknownThrough.Before(pos)
}

func (t *stampTable) forgetThrough(pos wal.Position) {
	t.mu.Lock()
	t.unknownThrough = pos
	t.mu.Unlock()
}

// originStream is one inbound stream's covers: how far its sender, in
// incarnation boot, says each follower acknowledged its stream.
type originStream struct {
	boot   uint64
	covers map[string]wal.Position
	dead   bool
}

// pendingEntry is a record passed over before its origin's cover reached
// it: at origin in the origin's journal, at local in ours.
type pendingEntry struct{ origin, local wal.Position }

// pumpCover is one outbound peer's cover state, outliving connections: the
// pending lists (per origin, ascending) are what the peer may lack should
// an origin stop covering it, and while rewinding the next connection
// resumes no later than rewind. rewindSeq tells rewinds apart, and pin
// holds the oldest generation any of this lives in against pruning.
type pumpCover struct {
	lists     map[string][]pendingEntry
	rewind    wal.Position
	rewinding bool
	rewindSeq uint64
	pin       func()
	pinGen    uint64
}

// pumpCoverLocked returns peer's cover state. Caller holds coverMu.
func (g *Group) pumpCoverLocked(peer string) *pumpCover {
	pc := g.pumpCovers[peer]
	if pc == nil {
		pc = &pumpCover{lists: make(map[string][]pendingEntry)}
		g.pumpCovers[peer] = pc
	}
	return pc
}

// openOrigin makes an inbound stream from sender the one whose covers
// count.
func (g *Group) openOrigin(sender string, boot uint64) *originStream {
	src := &originStream{boot: boot, covers: make(map[string]wal.Position)}
	g.coverMu.Lock()
	g.origins[sender] = src
	g.coverMu.Unlock()
	return src
}

// originLost stops relying on sender: its stream src ended, or (src nil) the
// prober declared it dead. Pumps rewind over what was pending on it.
func (g *Group) originLost(sender string, src *originStream) {
	g.coverMu.Lock()
	defer g.coverMu.Unlock()
	if cur := g.origins[sender]; cur != nil && (src == nil || cur == src) {
		cur.dead = true
		delete(g.origins, sender)
	}
	if src != nil {
		src.dead = true
	}
	for peer, pc := range g.pumpCovers {
		g.rewindLocked(peer, pc, sender)
	}
}

// noteCover records sender's cover of peer, popping what it reaches or, on
// "no longer following", rewinding the pump to peer.
func (g *Group) noteCover(src *originStream, sender, peer string, pos wal.Position) {
	if peer == g.cfg.Self {
		return
	}
	g.coverMu.Lock()
	defer g.coverMu.Unlock()
	if src.dead {
		return
	}
	src.covers[peer] = pos
	pc := g.pumpCovers[peer]
	if pc == nil {
		return
	}
	if pos.Gen == coverNotFollowing {
		g.rewindLocked(peer, pc, sender)
		return
	}
	l := pc.lists[sender]
	n := 0
	for n < len(l) && !pos.Before(l[n].origin) {
		n++
	}
	if n > 0 {
		pc.lists[sender] = l[:copy(l, l[n:])]
		g.repinLocked(pc)
	}
}

// coverSkip reports whether the pump to peer may pass over the record at
// local shown to us by e: e's sender originated it, is not peer, streams to
// us in the same incarnation and covers peer. A cover short of the record
// queues it as pending.
func (g *Group) coverSkip(peer string, e stampEntry, local wal.Position) bool {
	if !e.origin || e.sender == peer {
		return false
	}
	g.coverMu.Lock()
	defer g.coverMu.Unlock()
	src := g.origins[e.sender]
	if src == nil || src.boot != e.boot {
		return false
	}
	cov, ok := src.covers[peer]
	if !ok || cov.Gen == coverNotFollowing {
		return false
	}
	if !cov.Before(e.pos) {
		return true
	}
	pc := g.pumpCoverLocked(peer)
	l := pc.lists[e.sender]
	if len(l) >= pendingMax {
		return false
	}
	pc.lists[e.sender] = append(l, pendingEntry{origin: e.pos, local: local})
	if len(l) == 0 {
		g.repinLocked(pc)
	}
	return true
}

// rewindLocked makes the pump to peer re-stream from just before the first
// record pending on sender, severing its connection. Caller holds coverMu.
func (g *Group) rewindLocked(peer string, pc *pumpCover, sender string) {
	l := pc.lists[sender]
	if len(l) == 0 {
		return
	}
	to := wal.Position{Gen: l[0].local.Gen, Records: l[0].local.Records - 1}
	if !pc.rewinding || to.Before(pc.rewind) {
		pc.rewind, pc.rewinding = to, true
	}
	pc.rewindSeq++
	g.truncatePendingLocked(pc, to)
	g.rewinds.Add(1)
	g.cfg.Tracer.Emit(obs.LevelInfo, "cluster_pump_rewind",
		obs.Str("peer", peer), obs.Str("origin", sender),
		obs.Uint("gen", to.Gen), obs.Int("records", to.Records))
	g.pumpMu.Lock()
	if c, ok := g.pumpConns[peer]; ok {
		c.Close()
	}
	g.pumpMu.Unlock()
}

// truncatePendingLocked drops the pending entries after from: a stream
// resuming at from decides those records afresh.
func (g *Group) truncatePendingLocked(pc *pumpCover, from wal.Position) {
	for sender, l := range pc.lists {
		n := len(l)
		for n > 0 && from.Before(l[n-1].local) {
			n--
		}
		pc.lists[sender] = l[:n]
	}
	g.repinLocked(pc)
}

// repinLocked pins the oldest generation holding a pending record or the
// rewind point: a snapshot must not prune what a rewind re-reads.
func (g *Group) repinLocked(pc *pumpCover) {
	gen, any := uint64(0), pc.rewinding
	if any {
		gen = pc.rewind.Gen
	}
	for _, l := range pc.lists {
		if len(l) > 0 && (!any || l[0].local.Gen < gen) {
			gen, any = l[0].local.Gen, true
		}
	}
	switch {
	case !any:
		if pc.pin != nil {
			pc.pin()
			pc.pin = nil
		}
	case pc.pin == nil || gen != pc.pinGen:
		old := pc.pin
		pc.pin, pc.pinGen = g.ts.Persist.PinGeneration(gen), gen
		if old != nil {
			old()
		}
	}
}

// takeRewind lowers a new stream's resume position to peer's rewind point,
// if any, returning it with the rewind's sequence number.
func (g *Group) takeRewind(peer string, resume wal.Position) (wal.Position, uint64) {
	g.coverMu.Lock()
	defer g.coverMu.Unlock()
	pc := g.pumpCoverLocked(peer)
	if pc.rewinding && pc.rewind.Before(resume) {
		resume = pc.rewind
	}
	g.truncatePendingLocked(pc, resume)
	return resume, pc.rewindSeq
}

// rewindDone clears peer's rewind point once the stream that resumed at it
// had a frame acknowledged: the peer's own resume position has passed it.
func (g *Group) rewindDone(peer string, seq uint64) {
	g.coverMu.Lock()
	defer g.coverMu.Unlock()
	if pc := g.pumpCovers[peer]; pc != nil && pc.rewinding && pc.rewindSeq == seq {
		pc.rewinding = false
		g.repinLocked(pc)
	}
}

// register and drop change the follower set, and wake the pumps so the
// covers saying so go out promptly.
func (g *Group) register(peer string, pos wal.Position) {
	g.tracker.RegisterAt(peer, pos)
	g.trackerChanged()
}

func (g *Group) drop(peer string) {
	g.tracker.Drop(peer)
	g.trackerChanged()
}

func (g *Group) trackerChanged() {
	g.coverMu.Lock()
	g.trackerEpoch.Add(1)
	if g.coverWake != nil {
		close(g.coverWake)
		g.coverWake = nil
	}
	g.coverMu.Unlock()
}

// coverWakeCh returns a channel closed at the next tracker change, and the
// current tracker epoch.
func (g *Group) coverWakeCh() (<-chan struct{}, uint64) {
	g.coverMu.Lock()
	defer g.coverMu.Unlock()
	if g.coverWake == nil {
		g.coverWake = make(chan struct{})
	}
	return g.coverWake, g.trackerEpoch.Load()
}

// writeCovers buffers a cover for every follower other than the pump's
// peer whose position changed since the stream last told the peer, and a
// "no longer following" one for every follower that left the tracker.
func (g *Group) writeCovers(pm *pump, epoch uint64) error {
	pm.now = pm.now[:0]
	g.tracker.Each(func(peer string, pos wal.Position) {
		if peer != pm.peer {
			pm.now = append(pm.now, coverPos{peer, pos})
		}
	})
	for _, c := range pm.now {
		if sent, ok := pm.sent[c.peer]; !ok || sent != c.pos {
			if err := g.writeCover(pm, c.peer, c.pos); err != nil {
				return err
			}
		}
	}
next:
	for peer := range pm.sent {
		for _, c := range pm.now {
			if c.peer == peer {
				continue next
			}
		}
		if err := g.writeCover(pm, peer, wal.Position{Gen: coverNotFollowing}); err != nil {
			return err
		}
		delete(pm.sent, peer)
	}
	pm.epoch, pm.uncovered = epoch, 0
	return nil
}

func (g *Group) writeCover(pm *pump, peer string, pos wal.Position) error {
	pm.name = append(pm.name[:0], peer...)
	if err := pm.st.write(hrt.ReplFrame{Type: hrt.ReplFrameCover, Gen: pos.Gen, Index: pos.Records, Payload: pm.name}); err != nil {
		return err
	}
	if pos.Gen != coverNotFollowing {
		pm.sent[peer] = pos
	}
	g.replBytes.Add(int64(hrt.ReplHeadSize + len(peer)))
	return nil
}

type coverPos struct {
	peer string
	pos  wal.Position
}
