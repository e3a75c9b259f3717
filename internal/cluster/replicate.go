package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"

	"slicehide/internal/hrt"
	"slicehide/internal/obs"
	"slicehide/internal/wal"
)

// The replication pump: one goroutine per peer on the streaming (primary)
// side. Each pump dials the peer's serving port, performs the OpRepl
// handshake — whose response carries the peer's resume position, the
// newest (generation, index) it has already applied from us — and then
// follows this replica's own journal with a tail scanner from that
// position, shipping each record as a record frame; the peer echoes ack
// frames carrying the stream's (generation, index) coordinates, which
// feed the offset tracker that the semi-synchronous commit gate and the
// lag gauge read.
//
// When the peer's resume position predates our journal retention (it was
// down across a snapshot + prune, or it is a cold joiner with nothing at
// all), record streaming cannot catch it up — the history it needs is
// gone. The pump then ships our newest snapshot as a chunked, CRC-framed,
// chunk-resumable transfer; the peer imports it as its own state base and
// the stream resumes from the snapshot's cut position. A sender whose
// retention has pruned the peer's resume point NEVER silently falls back
// to oldest-retained streaming: it does so only when the receiver
// explicitly answers "proceed" (meaning the receiver already holds a
// state base covering the gap). A cold replica's first state therefore
// only ever arrives as a snapshot import or as a full-history stream from
// generation zero — either way, gap-free.
//
// A pump does not ship a record back to a peer that already showed it to
// us, nor to a peer the record's origin still delivers it to (cover.go).
// The handshake trades boot ids (one random id per Group, i.e. per process
// incarnation); the inbound side notes, for every record frame it reads,
// "this (session, seq) was shown to us by boot β", and a pump whose peer
// answered the handshake with β passes over a record so marked — that
// incarnation read it out of its own journal before it reached us. A
// restarted peer answers with a new boot id, so nothing its previous life
// showed us is withheld from it: a replica that lost its data directory
// still gets its own records back.

// pumpBackoffMin/Max bound the reconnect backoff.
const (
	pumpBackoffMin = 50 * time.Millisecond
	pumpBackoffMax = 2 * time.Second
)

// tailPollInterval is how long a caught-up pump waits for an append
// notification before re-reading the journal tail anyway (a variable only
// so tests can put the poll out of reach).
var tailPollInterval = 500 * time.Millisecond

// maxSnapXfer bounds a staged snapshot transfer (defense against a
// corrupt or hostile SnapBegin length).
const maxSnapXfer = 1 << 30

// snapMetaSize is the fixed SnapBegin payload layout:
// total(u64) payloadCRC(u32) chunkSize(u32) tailGen(u64) tailRecords(u64).
const snapMetaSize = 32

func encodeSnapMeta(total int64, crc uint32, chunk int, tail wal.Position) []byte {
	b := make([]byte, snapMetaSize)
	binary.LittleEndian.PutUint64(b[0:8], uint64(total))
	binary.LittleEndian.PutUint32(b[8:12], crc)
	binary.LittleEndian.PutUint32(b[12:16], uint32(chunk))
	binary.LittleEndian.PutUint64(b[16:24], tail.Gen)
	binary.LittleEndian.PutUint64(b[24:32], uint64(tail.Records))
	return b
}

func decodeSnapMeta(b []byte) (total int64, crc uint32, chunk int, tail wal.Position, err error) {
	if len(b) != snapMetaSize {
		return 0, 0, 0, wal.Position{}, fmt.Errorf("cluster: snapshot meta is %d bytes, want %d", len(b), snapMetaSize)
	}
	total = int64(binary.LittleEndian.Uint64(b[0:8]))
	crc = binary.LittleEndian.Uint32(b[8:12])
	chunk = int(binary.LittleEndian.Uint32(b[12:16]))
	tail = wal.Position{
		Gen:     binary.LittleEndian.Uint64(b[16:24]),
		Records: int64(binary.LittleEndian.Uint64(b[24:32])),
	}
	if total <= 0 || total > maxSnapXfer || chunk <= 0 {
		return 0, 0, 0, wal.Position{}, fmt.Errorf("cluster: snapshot meta out of range (total %d, chunk %d)", total, chunk)
	}
	return total, crc, chunk, tail, nil
}

// snapStage is a partially received snapshot transfer. At most one is
// active per replica (one sender owns the import); it lives in memory, so
// a receiver crash restarts the transfer from scratch while a mere
// connection drop resumes at chunk granularity (SnapBegin re-offer →
// SnapAck carrying the staged chunk count).
type snapStage struct {
	sender string
	gen    uint64
	total  int64
	crc    uint32
	chunk  int
	tail   wal.Position
	buf    []byte
	chunks int64 // contiguous chunks staged so far
	start  time.Time
}

func (st *snapStage) nchunks() int64 {
	return (st.total + int64(st.chunk) - 1) / int64(st.chunk)
}

// liftStep says an acknowledgement of from stands for one of to: every
// position after from up to to needed no acknowledgement of its own.
type liftStep struct{ from, to wal.Position }

// ackLift records, per streaming connection, the stretches of the stream
// that need no acknowledgement, so follower acks can be lifted across
// them. A generation that sealed at N records makes {G, N} equivalently
// {G+1, 0} — without that lift, a journal that rotates right after its
// last record leaves the fully-caught-up follower's newest ack in
// old-generation coordinates, and the lag gauge's conservative
// cross-generation floor reports phantom lag on an empty journal. A record
// the pump passed over (the peer showed it to us) makes {G, i-1}
// equivalently {G, i}: the peer will never acknowledge a frame it was not
// sent, and the commit gate, Lag and Ready must not wait for it to.
//
// The pump adds steps in stream order and acks arrive in stream order, so
// the steps form a queue. Lifting and tracker.Ack happen under mu from
// both the ack reader and the pump: done separately, an ack that lands
// between the pump's step and its re-lift is recorded unlifted and stays
// that way until the next record.
type ackLift struct {
	mu    sync.Mutex
	steps []liftStep // steps[head:] pending, ascending, contiguous ones merged
	head  int
}

// ack records peer's acknowledgement of pos, lifted.
func (l *ackLift) ack(tr *wal.OffsetTracker, peer string, pos wal.Position) {
	l.mu.Lock()
	tr.Ack(peer, l.lift(pos))
	l.mu.Unlock()
}

// pass records that the stream moved from from to to with nothing to
// acknowledge, and lifts peer's standing acknowledgement if it sits there.
func (l *ackLift) pass(tr *wal.OffsetTracker, peer string, from, to wal.Position) {
	l.mu.Lock()
	if n := len(l.steps); n > l.head && l.steps[n-1].to == from {
		l.steps[n-1].to = to
	} else {
		l.steps = append(l.steps, liftStep{from, to})
	}
	tr.Ack(peer, l.lift(tr.Acked(peer)))
	l.mu.Unlock()
}

// lift carries pos across every pending step it has reached, dropping the
// steps it leaves behind. Caller holds mu.
func (l *ackLift) lift(pos wal.Position) wal.Position {
	for l.head < len(l.steps) && !pos.Before(l.steps[l.head].from) {
		if to := l.steps[l.head].to; pos.Before(to) {
			pos = to
		}
		l.head++
	}
	if l.head == len(l.steps) {
		l.steps, l.head = l.steps[:0], 0
	} else if l.head >= 64 && l.head*2 >= len(l.steps) {
		// A follower that lags keeps steps pending; reclaim the consumed half.
		l.steps = l.steps[:copy(l.steps, l.steps[l.head:])]
		l.head = 0
	}
	return pos
}

// replStream is the writing half of one replication connection, either
// direction. Frames go head-then-payload into its buffered writer and are
// flushed one by one; the write deadline that bounds a blocked flush is
// re-armed only once a quarter of the timeout has passed since it was set,
// so a frame costs no timer update and a stuck write still fails within
// the timeout.
type replStream struct {
	conn    net.Conn
	w       *bufio.Writer
	timeout time.Duration
	armed   time.Time // when the write deadline was last set; zero = none stands
}

func (g *Group) newReplStream(conn net.Conn) *replStream {
	return &replStream{conn: conn, w: bufio.NewWriter(conn), timeout: g.cfg.CommitTimeout}
}

func (s *replStream) send(f hrt.ReplFrame) error {
	if err := s.write(f); err != nil {
		return err
	}
	return s.w.Flush()
}

// write buffers f for the next flush.
func (s *replStream) write(f hrt.ReplFrame) error {
	if now := time.Now(); now.Sub(s.armed) >= s.timeout/4 {
		s.conn.SetWriteDeadline(now.Add(s.timeout))
		s.armed = now
	}
	return hrt.WriteReplFrame(s.w, f)
}

// disarm clears the connection's deadlines, read and write.
func (s *replStream) disarm() {
	s.conn.SetDeadline(time.Time{})
	s.armed = time.Time{}
}

func (g *Group) pumpLoop(peer string, stopCh <-chan struct{}) {
	defer g.wg.Done()
	backoff := pumpBackoffMin
	for {
		select {
		case <-g.stop:
			return
		case <-stopCh:
			return
		default:
		}
		conn, err := g.cfg.Dial("tcp", peer, g.cfg.DialTimeout)
		if err != nil {
			if !g.sleepCh(backoff, stopCh) {
				return
			}
			backoff = min(backoff*2, pumpBackoffMax)
			continue
		}
		g.trackPumpConn(peer, conn)
		registered, err := g.streamTo(peer, conn, stopCh)
		g.untrackPumpConn(peer)
		g.drop(peer)
		conn.Close()
		if registered {
			// The link worked: what follows is a new outage, not more of
			// the old one.
			backoff = pumpBackoffMin
		}
		select {
		case <-g.stop:
			return
		case <-stopCh:
			return
		default:
		}
		if err != nil && !errors.Is(err, io.EOF) {
			g.cfg.Tracer.Emit(obs.LevelWarn, "cluster_pump_error",
				obs.Str("peer", peer), obs.Err(err))
		}
		if !g.sleepCh(backoff, stopCh) {
			return
		}
		backoff = min(backoff*2, pumpBackoffMax)
	}
}

// sleepCh waits d or until the group (or this pump) stops; false means
// stopping. A nil stopCh waits on the group alone.
func (g *Group) sleepCh(d time.Duration, stopCh <-chan struct{}) bool {
	select {
	case <-g.stop:
		return false
	case <-stopCh:
		return false
	case <-time.After(d):
		return true
	}
}

func (g *Group) trackPumpConn(peer string, c net.Conn) {
	g.pumpMu.Lock()
	g.pumpConns[peer] = c
	g.pumpMu.Unlock()
}

func (g *Group) untrackPumpConn(peer string) {
	g.pumpMu.Lock()
	delete(g.pumpConns, peer)
	g.pumpMu.Unlock()
}

// streamTo runs one connection's worth of replication to peer: handshake
// (learning the peer's resume position), a snapshot transfer if that
// position was pruned, register, then stream generations in order forever
// (until the link or the group dies). The ack reader runs concurrently so
// a slow follower back-pressures through the socket, not through
// lockstep. registered reports whether the peer got as far as the tracker.
func (g *Group) streamTo(peer string, conn net.Conn, stopCh <-chan struct{}) (registered bool, err error) {
	r := bufio.NewReader(conn)
	st := g.newReplStream(conn)
	conn.SetDeadline(time.Now().Add(g.cfg.CommitTimeout))
	hello := hrt.Request{Op: hrt.OpRepl, Fn: g.cfg.Self, Session: g.boot, Frag: hrt.ReplProtoVersion}
	if err := hrt.WriteRequest(st.w, hello); err != nil {
		return false, err
	}
	if err := st.w.Flush(); err != nil {
		return false, err
	}
	resp, err := hrt.ReadResponse(r)
	if err != nil {
		return false, err
	}
	if err := hrt.CheckReplHello(resp); err != nil {
		return false, fmt.Errorf("cluster: peer %s refused replication: %w", peer, err)
	}
	st.disarm()
	// A pending rewind lowers the peer's resume position: records we passed
	// over for an origin that stopped covering the peer come again.
	resume, rewindSeq := g.takeRewind(peer, wal.Position{Gen: resp.Seq, Records: int64(resp.Ack)})
	// Zero from a peer that states no boot id: nothing is ever skipped for it.
	peerBoot := uint64(resp.Inst)

	p := g.ts.Persist
	gens, err := p.Generations()
	if err != nil {
		return false, err
	}
	oldest := uint64(0)
	if len(gens) > 0 {
		oldest = gens[0]
	} else {
		oldest, _ = p.CurrentPosition()
	}
	if curGen, curRecords := p.CurrentPosition(); resume.Gen > curGen ||
		(resume.Gen == curGen && resume.Records > curRecords) {
		// The peer claims to be ahead of us — it applied records from a
		// journal history we no longer have (we lost our data dir, or it
		// talked to a different incarnation). Re-stream from the oldest
		// retained generation; its replay high-water marks absorb overlap.
		resume = wal.Position{Gen: oldest, Records: 0}
	}
	if resume.Gen < oldest {
		// The peer's resume point predates retention: journal streaming
		// alone would leave a silent gap. Ship the newest snapshot; fall
		// back to oldest-retained streaming only on an explicit "proceed"
		// (the peer already holds a state base).
		newResume, sent, release, serr := g.sendSnapshot(peer, st, r)
		if release != nil {
			// Hold the snapshot generation pinned against pruning until this
			// stream ends — its journal is the next thing we tail.
			defer release()
		}
		if serr != nil {
			return false, serr
		}
		if sent {
			resume = newResume
		} else {
			resume = wal.Position{Gen: oldest, Records: 0}
		}
	}

	// Announce the stream's catch-up target: our position as of now. The
	// peer holds its /readyz until it has applied up to this point, so a
	// joiner is never marked ready while it still owes history. Its applied
	// position only advances on frames it receives, so no record at or
	// before the target is ever passed over.
	tailGen, tailRecords := p.CurrentPosition()
	target := wal.Position{Gen: tailGen, Records: tailRecords}
	if err := st.send(hrt.ReplFrame{Type: hrt.ReplFrameTarget, Gen: target.Gen, Index: target.Records}); err != nil {
		return false, err
	}
	st.disarm()

	g.cfg.Tracer.Emit(obs.LevelInfo, "cluster_pump_connected",
		obs.Str("peer", peer), obs.Uint("peer_boot", peerBoot),
		obs.Uint("resume_gen", resume.Gen), obs.Int("resume_records", resume.Records))
	// Register at the true resume position: the commit gate must not stall
	// on history the follower already holds, and must not count a joiner
	// as covering positions it has not reached.
	g.register(peer, resume)

	// Ack reader: every ack raises the peer's tracked position (lifted
	// across whatever needed no ack), releasing commit waiters. On any read
	// error it closes the connection so the writer side unblocks too, and
	// its exit is the pump's only notice of a dead link while it has nothing
	// to write — which, passing over a peer's own records, can be always.
	lift := new(ackLift)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		defer conn.Close()
		acked := false
		for {
			f, err := hrt.ReadReplFrame(r)
			if err != nil {
				return
			}
			if f.Type == hrt.ReplFrameAck {
				lift.ack(g.tracker, peer, wal.Position{Gen: f.Gen, Records: f.Index})
				if !acked {
					acked = true
					g.rewindDone(peer, rewindSeq)
				}
			}
		}
	}()
	err = g.streamRecords(&pump{
		peer: peer, boot: peerBoot, st: st, stopCh: stopCh, dead: readerDone, target: target, lift: lift,
		sent: make(map[string]wal.Position),
	}, resume)
	conn.Close()
	<-readerDone
	return true, err
}

// sendSnapshot ships this replica's newest snapshot to a peer whose
// resume position has been pruned. It runs before the ack reader starts,
// so it owns both directions of the connection: offer (SnapBegin with the
// payload's size/CRC/chunking and our current tail), honor the peer's
// resume chunk (a re-offer after a dropped connection restarts at the
// first unstaged chunk, not at zero), stream CRC-prefixed chunks, then
// wait for the final ack that confirms the peer imported and re-journaled
// the payload. Returns the stream resume position (the snapshot's cut),
// whether the transfer happened (false + nil error means the peer said
// "proceed": it already holds a base, stream from oldest retained), and a
// release that unpins the snapshot's generation.
func (g *Group) sendSnapshot(peer string, st *replStream, r *bufio.Reader) (wal.Position, bool, func(), error) {
	conn := st.conn
	p := g.ts.Persist
	snapGen, payload, release, err := p.NewestSnapshot()
	if err != nil {
		if errors.Is(err, hrt.ErrNoSnapshot) {
			// Nothing to ship — we never snapshotted, so our full history is
			// still on disk and plain streaming covers it.
			return wal.Position{}, false, nil, nil
		}
		return wal.Position{}, false, nil, err
	}
	start := time.Now()
	total := int64(len(payload))
	chunk := g.cfg.SnapChunk
	nchunks := (total + int64(chunk) - 1) / int64(chunk)
	sum := crc32.ChecksumIEEE(payload)
	tailGen, tailRecords := p.CurrentPosition()

	// The deadline must not outlive this call on ANY path: the pump's ack
	// reader and record stream share the connection, and a deadline left
	// armed after a declined offer severs that stream CommitTimeout later —
	// on an idle fleet the pump then reconnects (and is declined) forever,
	// so the peer never keeps an announced inbound stream and never goes
	// ready.
	conn.SetReadDeadline(time.Now().Add(g.cfg.CommitTimeout))
	defer st.disarm()
	if err := st.send(hrt.ReplFrame{
		Type: hrt.ReplFrameSnapBegin, Gen: snapGen,
		Payload: encodeSnapMeta(total, sum, chunk, wal.Position{Gen: tailGen, Records: tailRecords}),
	}); err != nil {
		return wal.Position{}, false, release, err
	}
	f, err := hrt.ReadReplFrame(r)
	if err != nil {
		return wal.Position{}, false, release, err
	}
	startChunk := int64(0)
	switch f.Type {
	case hrt.ReplFrameSnapNack:
		reason := string(f.Payload)
		if len(reason) >= len(hrt.SnapNackProceed) && reason[:len(hrt.SnapNackProceed)] == hrt.SnapNackProceed {
			g.cfg.Tracer.Emit(obs.LevelInfo, "cluster_snap_xfer_declined",
				obs.Str("peer", peer), obs.Str("reason", reason))
			return wal.Position{}, false, release, nil
		}
		return wal.Position{}, false, release, fmt.Errorf("cluster: peer %s declined snapshot transfer: %s", peer, reason)
	case hrt.ReplFrameSnapAck:
		if f.Gen != snapGen || f.Index < 0 || f.Index > nchunks {
			return wal.Position{}, false, release, fmt.Errorf("cluster: bad snapshot resume ack from %s (gen %d, chunk %d)", peer, f.Gen, f.Index)
		}
		startChunk = f.Index
	default:
		return wal.Position{}, false, release, fmt.Errorf("cluster: unexpected frame %d answering snapshot offer", f.Type)
	}
	if startChunk > 0 {
		g.snapResumes.Add(1)
		g.cfg.Tracer.Emit(obs.LevelInfo, "cluster_snap_xfer_resume",
			obs.Str("peer", peer), obs.Int("chunk", startChunk))
	}

	for i := startChunk; i < nchunks; i++ {
		lo := i * int64(chunk)
		body := payload[lo:min(lo+int64(chunk), total)]
		framed := make([]byte, 4+len(body))
		binary.LittleEndian.PutUint32(framed[0:4], crc32.ChecksumIEEE(body))
		copy(framed[4:], body)
		if err := st.send(hrt.ReplFrame{
			Type: hrt.ReplFrameSnapChunk, Gen: snapGen, Index: i, Payload: framed,
		}); err != nil {
			return wal.Position{}, false, release, err
		}
		g.snapXferBytes.Add(int64(hrt.ReplHeadSize + len(framed)))
	}

	// Drain progress acks until the peer confirms the import (final ack
	// carries the total chunk count). Each read gets a fresh deadline: the
	// peer acks every chunk, and the import itself is bounded by a
	// snapshot write + journal rotation on its side.
	for {
		conn.SetReadDeadline(time.Now().Add(g.cfg.CommitTimeout))
		f, err := hrt.ReadReplFrame(r)
		if err != nil {
			return wal.Position{}, false, release, fmt.Errorf("cluster: snapshot transfer to %s interrupted: %w", peer, err)
		}
		switch f.Type {
		case hrt.ReplFrameSnapNack:
			reason := string(f.Payload)
			if len(reason) >= len(hrt.SnapNackProceed) && reason[:len(hrt.SnapNackProceed)] == hrt.SnapNackProceed {
				// The peer refused the import because it is no longer empty —
				// another sender's snapshot landed first. That base covers our
				// pruned history too (it cut at or beyond it), so plain
				// streaming is safe again.
				return wal.Position{}, false, release, nil
			}
			return wal.Position{}, false, release, fmt.Errorf("cluster: peer %s aborted snapshot transfer: %s", peer, reason)
		case hrt.ReplFrameSnapAck:
			if f.Index >= nchunks {
				g.snapXferNS.Add(time.Since(start).Nanoseconds())
				g.cfg.Tracer.Emit(obs.LevelInfo, "cluster_snap_xfer_sent",
					obs.Str("peer", peer), obs.Uint("gen", snapGen),
					obs.Int("bytes", total), obs.Int("chunks", nchunks-startChunk),
					obs.Dur("took", time.Since(start)))
				return wal.Position{Gen: snapGen, Records: 0}, true, release, nil
			}
		default:
			return wal.Position{}, false, release, fmt.Errorf("cluster: unexpected frame %d during snapshot transfer", f.Type)
		}
	}
}

var errLinkLost = errors.New("cluster: replication link lost")

// pump is one outbound stream's state once the handshake is done.
type pump struct {
	peer   string
	boot   uint64 // the peer's boot id; 0 = it stated none
	st     *replStream
	stopCh <-chan struct{}
	dead   <-chan struct{} // closed when the ack reader lost the connection
	target wal.Position    // the announced catch-up target
	lift   *ackLift

	// Covers: what the stream last told the peer of each other follower,
	// the tracker epoch that was read at, and the origin frames sent since.
	sent      map[string]wal.Position
	epoch     uint64
	uncovered int
	now       []coverPos // scratch for writeCovers
	name      []byte     // scratch for a cover's payload
}

// coverEvery is how many origin frames go out before the covers settling
// them ride ahead of the next record frame: a record pending at a relayer
// costs nothing while it waits.
const coverEvery = 4

// streamRecords follows the local journal from resume and ships every
// record beyond it that neither the peer itself showed us nor its origin
// still delivers to it.
func (g *Group) streamRecords(pm *pump, resume wal.Position) error {
	p := g.ts.Persist
	// at is the stream's position: everything up to it was sent, passed
	// over, or is history the peer holds already.
	at := resume
	for {
		opened, count, err := g.streamGeneration(pm, at)
		if opened {
			at.Records = count
		}
		if err == nil {
			// The generation sealed at count records: an ack sitting exactly
			// on the boundary stands for the next generation's start. Tell
			// the receiver, so it can make the same lift on its applied
			// position — without it, a catch-up target announced as (G, 0)
			// right after a rotation is unreachable for a receiver sitting
			// on (G-1, count) when no further records flow.
			next := wal.Position{Gen: at.Gen + 1}
			pm.lift.pass(g.tracker, pm.peer, at, next)
			if pm.st.send(hrt.ReplFrame{Type: hrt.ReplFrameSeal, Gen: at.Gen, Index: count}) != nil {
				return errors.New("cluster: seal announcement failed")
			}
			at = next
			continue
		}
		if opened {
			return err
		}
		// The generation's journal could not be opened — pruned by a
		// snapshot while this pump was behind, or rotated into existence
		// concurrently. Jump to the oldest retained generation beyond it;
		// the receiver's replay high-water marks absorb any overlap, and
		// the receiver necessarily holds a base at or beyond the pruning
		// snapshot's cut (it reached this generation through streaming or
		// import), so no gap opens — and nothing in between is left to
		// acknowledge.
		gens, lerr := p.Generations()
		if lerr != nil {
			return lerr
		}
		next := wal.Position{}
		for _, gn := range gens {
			if gn > at.Gen {
				next.Gen = gn
				break
			}
		}
		if next.Gen == 0 {
			if next.Gen, _ = p.CurrentPosition(); next.Gen <= at.Gen {
				return err
			}
		}
		pm.lift.pass(g.tracker, pm.peer, at, next)
		at = next
	}
}

// streamGeneration streams generation from.Gen until it is sealed by a
// journal rotation, then returns nil (plus the generation's final record
// count) so the caller advances to the next one. The first from.Records
// records are read but not sent (the peer already applied them — its
// resume position within this generation). The generation is pinned
// against pruning for the duration: a snapshot landing mid-stream must not
// delete the file under our tail scanner. The first result reports whether
// the generation's journal file could be opened.
func (g *Group) streamGeneration(pm *pump, from wal.Position) (bool, int64, error) {
	p := g.ts.Persist
	gen := from.Gen
	unpin := p.PinGeneration(gen)
	defer unpin()
	tail, err := wal.OpenTail(p.JournalFile(gen), 0)
	if err != nil {
		return false, 0, err
	}
	defer tail.Close()
	// One timer for every caught-up wait of this generation's stream: a
	// time.After per wait is a live timer per replicated record.
	poll := time.NewTimer(tailPollInterval)
	defer poll.Stop()
	var idx int64
	sealed, polled := false, false
	// The notification channel is acquired before the read it guards — an
	// append that lands between the read and the wait closes this channel,
	// so the wakeup cannot be lost — and the scanner reports caught-up from
	// the read that saw the log end, without another to confirm it.
	notify := p.AppendNotify()
	for {
		payload, err := tail.Next()
		if err == nil {
			idx++
			if idx <= from.Records {
				continue
			}
			pos := wal.Position{Gen: gen, Records: idx}
			pass, own := g.passOver(pm, payload, pos)
			if pass {
				pm.lift.pass(g.tracker, pm.peer, wal.Position{Gen: gen, Records: idx - 1}, pos)
				g.replSkipped.Add(1)
				select {
				case <-pm.dead: // no write will report it
					return true, idx, errLinkLost
				default:
				}
				continue
			}
			if epoch := g.trackerEpoch.Load(); pm.uncovered >= coverEvery || epoch != pm.epoch {
				if err := g.writeCovers(pm, epoch); err != nil {
					return true, idx, err
				}
			}
			f := hrt.ReplFrame{Type: hrt.ReplFrameRecord, Gen: gen, Index: idx, Payload: payload}
			if own {
				f.Type = hrt.ReplFrameOrigin
				pm.uncovered++
			}
			if serr := pm.st.send(f); serr != nil {
				return true, idx, serr
			}
			g.replBytes.Add(int64(hrt.ReplHeadSize + len(payload)))
			continue
		}
		if err != wal.ErrTailCaughtUp {
			return true, idx, err
		}
		if sealed {
			// Rotation was observed on a previous pass, so the file was
			// already final before this read: the generation is complete.
			return true, idx, nil
		}
		if curGen, _ := p.CurrentPosition(); curGen > gen {
			// Rotation commits under the write quiesce, after every append
			// to the old generation — but some of those appends may have
			// landed after our caught-up read. One more pass drains them.
			sealed = true
			continue
		}
		// Caught up: a follower registered or dropped since the stream last
		// said so goes out now, and the poll tick sends whatever else moved.
		wake, epoch := g.coverWakeCh()
		if epoch != pm.epoch || polled {
			if err := g.writeCovers(pm, epoch); err != nil {
				return true, idx, err
			}
			if err := pm.st.w.Flush(); err != nil {
				return true, idx, err
			}
		}
		polled = false
		if !poll.Stop() {
			select { // fired during an earlier wait that notify won
			case <-poll.C:
			default:
			}
		}
		poll.Reset(tailPollInterval)
		select {
		case <-notify:
			g.pumpWakes.Add(1)
		case <-wake:
		case <-g.stop:
			return true, idx, errors.New("cluster: group closed")
		case <-pm.stopCh:
			return true, idx, errors.New("cluster: pump stopped")
		case <-pm.dead:
			return true, idx, errLinkLost
		case <-poll.C:
			// Paranoia poll: nothing should be lost given the
			// acquire-before-read protocol, but a cheap re-check beats a
			// wedged fleet if that invariant ever breaks.
			polled = true
		}
		notify = p.AppendNotify()
	}
}

// passOver decides the record at pos for the pump's peer: passed over, when
// the peer showed it to us or its origin covers the peer — never at or
// before the announced target — or sent, flagged as our own when nobody
// showed it to us.
func (g *Group) passOver(pm *pump, payload []byte, pos wal.Position) (pass, own bool) {
	e, noted := g.stamps.lookup(payload)
	if !noted {
		return false, g.stamps.ownRecord(pos)
	}
	return pm.target.Before(pos) && (e.boot == pm.boot || g.coverSkip(pm.peer, e, pos)), false
}

// ---------------------------------------------------------------------------
// Inbound side

// inbound is this replica's record of one sender's replication streams:
// the newest position applied from it (the OpRepl handshake's resume
// source), the journal position it last announced (ReplFrameTarget;
// readiness holds until applied reaches it), its open streams, and how
// many of those have announced.
type inbound struct {
	applied, target wal.Position
	open, announced int
}

// inboundLocked returns sender's record, making it on first use. Caller
// holds recvMu.
func (g *Group) inboundLocked(sender string) *inbound {
	in := g.recv[sender]
	if in == nil {
		in = &inbound{}
		g.recv[sender] = in
	}
	return in
}

// replResume implements hrt.TCPServer.ReplResume: the newest position
// this replica has applied from sender, handed back in the OpRepl
// handshake so a reconnecting pump resumes where it left off instead of
// re-streaming history.
func (g *Group) replResume(sender string) (uint64, int64) {
	g.recvMu.Lock()
	defer g.recvMu.Unlock()
	pos := g.inboundLocked(sender).applied
	return pos.Gen, pos.Records
}

// handleRepl implements hrt.TCPServer.ReplHandler: it owns a connection a
// peer switched into replication mode, applying each record frame to the
// local server and acknowledging it. Snapshot-transfer frames run the
// receiving half of the catch-up protocol. An apply error stops the acks
// and drops the stream — the primary will reconnect and re-stream, and if
// the error is persistent this replica's lag (and its /readyz) make the
// damage visible instead of silently diverging.
func (g *Group) handleRepl(conn net.Conn, r *bufio.Reader, sender string, boot uint64) {
	if sender == "" {
		sender = conn.RemoteAddr().String()
	}
	g.cfg.Tracer.Emit(obs.LevelInfo, "cluster_repl_stream_open",
		obs.Str("peer", sender), obs.Uint("peer_boot", boot))
	g.recvMu.Lock()
	in := g.inboundLocked(sender)
	in.open++
	g.recvMu.Unlock()
	announced := false
	defer func() {
		g.recvMu.Lock()
		in.open--
		if announced && in.announced > 0 {
			in.announced--
		}
		g.recvMu.Unlock()
	}()
	st := g.newReplStream(conn)
	// A sender that states no boot id is never noted in the stamp table, so
	// nothing it covers is ever passed over.
	var covers *originStream
	if boot != 0 {
		covers = g.openOrigin(sender, boot)
		defer g.originLost(sender, covers)
	}
	for {
		f, err := hrt.ReadReplFrame(r)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				g.cfg.Tracer.Emit(obs.LevelWarn, "cluster_repl_stream_error",
					obs.Str("peer", sender), obs.Err(err))
			}
			return
		}
		switch f.Type {
		case hrt.ReplFrameRecord, hrt.ReplFrameOrigin:
			g.replReceived.Add(1)
			// Noted before the apply journals it: by the time a pump reads
			// the record back out of our journal, the mark is there.
			// Duplicates count too — the sender holds the record either way.
			g.stamps.note(f.Payload, stampEntry{
				sender: sender, boot: boot, pos: wal.Position{Gen: f.Gen, Records: f.Index},
				origin: f.Type == hrt.ReplFrameOrigin,
			}, g.journalPos)
			if err := g.ts.ApplyReplicated(f.Payload); err != nil {
				g.cfg.Tracer.Emit(obs.LevelError, "cluster_repl_apply_error",
					obs.Str("peer", sender), obs.Err(err))
				return
			}
			g.replApplied.Add(1)
			g.replBytes.Add(int64(hrt.ReplHeadSize + len(f.Payload)))
			g.recvMu.Lock()
			in.applied = wal.Position{Gen: f.Gen, Records: f.Index}
			g.recvMu.Unlock()
			if st.send(hrt.ReplFrame{Type: hrt.ReplFrameAck, Gen: f.Gen, Index: f.Index}) != nil {
				return
			}
		case hrt.ReplFrameCover:
			g.replBytes.Add(int64(hrt.ReplHeadSize + len(f.Payload)))
			if covers != nil {
				g.noteCover(covers, sender, string(f.Payload), wal.Position{Gen: f.Gen, Records: f.Index})
			}
		case hrt.ReplFrameSeal:
			// The sender's generation f.Gen ended at f.Index records, and the
			// seal follows the generation's last frame. Lift an applied
			// position sitting on the boundary across it; readiness compares
			// it against the announced target, and without the lift a target
			// of (G, 0) wedges readiness when the corpus stops right at the
			// rotation.
			g.recvMu.Lock()
			if in.applied == (wal.Position{Gen: f.Gen, Records: f.Index}) {
				in.applied = wal.Position{Gen: f.Gen + 1}
			}
			g.recvMu.Unlock()
		case hrt.ReplFrameTarget:
			g.recvMu.Lock()
			in.target = wal.Position{Gen: f.Gen, Records: f.Index}
			// The sender has told us where its journal stands: this stream
			// now counts toward the inbound-side readiness requirement.
			if !announced {
				announced = true
				in.announced++
			}
			g.recvMu.Unlock()
		case hrt.ReplFrameSnapBegin:
			if !g.recvSnapBegin(st, sender, f) {
				return
			}
		case hrt.ReplFrameSnapChunk:
			if !g.recvSnapChunk(st, sender, f) {
				return
			}
		default:
			// Acks and unknown-but-valid frames are sender-side traffic;
			// ignore them on the inbound stream.
		}
	}
}

// recvSnapBegin answers a snapshot offer: refuse with "proceed" when this
// replica already holds state (the sender then streams records instead),
// refuse with "retry" when a different sender's transfer is mid-flight on
// a live stream, resume a matching interrupted transfer at its staged
// chunk count, or accept a fresh one at chunk zero. False drops the
// stream (protocol error).
func (g *Group) recvSnapBegin(out *replStream, sender string, f hrt.ReplFrame) bool {
	total, sum, chunk, tail, err := decodeSnapMeta(f.Payload)
	if err != nil {
		g.cfg.Tracer.Emit(obs.LevelWarn, "cluster_snap_xfer_bad_offer",
			obs.Str("peer", sender), obs.Err(err))
		return false
	}
	if !g.ts.StateEmpty() {
		return out.send(hrt.ReplFrame{
			Type: hrt.ReplFrameSnapNack, Gen: f.Gen,
			Payload: []byte(hrt.SnapNackProceed + ": state not empty"),
		}) == nil
	}
	g.recvMu.Lock()
	if st := g.stage; st != nil && st.sender != sender {
		if in := g.recv[st.sender]; in != nil && in.open > 0 {
			g.recvMu.Unlock()
			return out.send(hrt.ReplFrame{
				Type: hrt.ReplFrameSnapNack, Gen: f.Gen,
				Payload: []byte(hrt.SnapNackRetry + ": transfer from " + st.sender + " in progress"),
			}) == nil
		}
		// The staging sender's stream died; its partial transfer is stale.
		g.stage = nil
	}
	startChunk := int64(0)
	if st := g.stage; st != nil {
		if st.gen == f.Gen && st.total == total && st.crc == sum && st.chunk == chunk {
			startChunk = st.chunks
			if startChunk > 0 {
				g.snapResumes.Add(1)
			}
		} else {
			// Same sender, different snapshot (it rotated since): restart.
			g.stage = nil
		}
	}
	if g.stage == nil {
		g.stage = &snapStage{
			sender: sender, gen: f.Gen, total: total, crc: sum, chunk: chunk,
			tail: tail, buf: make([]byte, 0, total), start: time.Now(),
		}
	}
	g.stage.tail = tail
	g.recvMu.Unlock()
	g.cfg.Tracer.Emit(obs.LevelInfo, "cluster_snap_xfer_begin",
		obs.Str("peer", sender), obs.Uint("gen", f.Gen),
		obs.Int("bytes", total), obs.Int("resume_chunk", startChunk))
	return out.send(hrt.ReplFrame{Type: hrt.ReplFrameSnapAck, Gen: f.Gen, Index: startChunk}) == nil
}

// recvSnapChunk stages one transfer chunk; on the final chunk it verifies
// the whole payload, imports it as this replica's state base, re-journals
// it, and confirms with the final ack. False drops the stream.
func (g *Group) recvSnapChunk(out *replStream, sender string, f hrt.ReplFrame) bool {
	g.recvMu.Lock()
	st := g.stage
	if st == nil || st.sender != sender || st.gen != f.Gen || st.chunks != f.Index {
		g.recvMu.Unlock()
		g.cfg.Tracer.Emit(obs.LevelWarn, "cluster_snap_xfer_bad_chunk",
			obs.Str("peer", sender), obs.Uint("gen", f.Gen), obs.Int("chunk", f.Index))
		return false
	}
	if len(f.Payload) < 4 {
		g.recvMu.Unlock()
		return false
	}
	body := f.Payload[4:]
	want := min(st.total-int64(len(st.buf)), int64(st.chunk))
	if int64(len(body)) != want || crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(f.Payload[0:4]) {
		g.recvMu.Unlock()
		g.cfg.Tracer.Emit(obs.LevelWarn, "cluster_snap_xfer_bad_chunk",
			obs.Str("peer", sender), obs.Uint("gen", f.Gen), obs.Int("chunk", f.Index))
		return false
	}
	st.buf = append(st.buf, body...)
	st.chunks++
	g.snapXferBytes.Add(int64(hrt.ReplHeadSize + len(f.Payload)))
	// Capture everything needed past this point while the lock is held —
	// a racing re-offer from the same sender may swap the stage out.
	snap := *st
	complete := int64(len(st.buf)) == st.total
	g.recvMu.Unlock()

	if !complete {
		return out.send(hrt.ReplFrame{Type: hrt.ReplFrameSnapAck, Gen: f.Gen, Index: snap.chunks}) == nil
	}

	// All chunks staged: verify and import. The stage stays set during the
	// import so readiness keeps reporting the transfer, and is cleared on
	// every outcome below.
	if crc32.ChecksumIEEE(snap.buf) != snap.crc {
		g.clearStage()
		g.cfg.Tracer.Emit(obs.LevelError, "cluster_snap_xfer_corrupt",
			obs.Str("peer", sender), obs.Uint("gen", snap.gen))
		return false
	}
	err := g.ts.ImportCatchupSnapshot(snap.buf)
	if errors.Is(err, hrt.ErrNotEmpty) {
		// Another sender's base landed between our emptiness check and the
		// import. That base covers this transfer's history too; tell the
		// sender to stream instead.
		g.clearStage()
		return out.send(hrt.ReplFrame{
			Type: hrt.ReplFrameSnapNack, Gen: snap.gen,
			Payload: []byte(hrt.SnapNackProceed + ": state no longer empty"),
		}) == nil
	}
	if err != nil {
		g.clearStage()
		g.cfg.Tracer.Emit(obs.LevelError, "cluster_snap_import_error",
			obs.Str("peer", sender), obs.Err(err))
		return false
	}
	g.recvMu.Lock()
	in := g.inboundLocked(sender)
	in.applied, in.target = wal.Position{Gen: snap.gen}, snap.tail
	g.stage = nil
	g.recvMu.Unlock()
	g.snapXferNS.Add(time.Since(snap.start).Nanoseconds())
	g.cfg.Tracer.Emit(obs.LevelInfo, "cluster_snap_imported",
		obs.Str("peer", sender), obs.Uint("gen", snap.gen),
		obs.Int("bytes", snap.total), obs.Dur("took", time.Since(snap.start)))
	return out.send(hrt.ReplFrame{Type: hrt.ReplFrameSnapAck, Gen: snap.gen, Index: snap.nchunks()}) == nil
}

func (g *Group) clearStage() {
	g.recvMu.Lock()
	g.stage = nil
	g.recvMu.Unlock()
}
