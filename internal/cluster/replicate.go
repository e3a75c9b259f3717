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

// pumpBackoffMin/Max bound the reconnect backoff.
const (
	pumpBackoffMin = 50 * time.Millisecond
	pumpBackoffMax = 2 * time.Second
)

// tailPollInterval is how long a caught-up pump waits for an append
// notification before re-reading the journal tail anyway.
const tailPollInterval = 500 * time.Millisecond

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

// sealTable records, per streaming connection, how many records each
// sealed generation held, so follower acks can be lifted across rotation
// boundaries: an ack of {G, N} where generation G sealed at N records is
// equivalently {G+1, 0}. Without the lift, a journal that rotates right
// after its last record leaves the fully-caught-up follower's newest ack
// in old-generation coordinates, and the lag gauge's conservative
// cross-generation floor reports phantom lag on an empty journal.
type sealTable struct {
	mu     sync.Mutex
	counts map[uint64]int64
}

func newSealTable() *sealTable {
	return &sealTable{counts: make(map[uint64]int64)}
}

func (s *sealTable) seal(gen uint64, n int64) {
	s.mu.Lock()
	s.counts[gen] = n
	s.mu.Unlock()
}

// normalize lifts pos through every sealed-generation boundary it sits
// exactly on.
func (s *sealTable) normalize(pos wal.Position) wal.Position {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		n, ok := s.counts[pos.Gen]
		if !ok || pos.Records != n {
			return pos
		}
		pos = wal.Position{Gen: pos.Gen + 1, Records: 0}
	}
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
		conn, err := net.DialTimeout("tcp", peer, g.cfg.DialTimeout)
		if err != nil {
			if !g.sleepCh(backoff, stopCh) {
				return
			}
			backoff = min(backoff*2, pumpBackoffMax)
			continue
		}
		g.trackPumpConn(peer, conn)
		err = g.streamTo(peer, conn, stopCh)
		g.untrackPumpConn(peer)
		g.tracker.Drop(peer)
		conn.Close()
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
// lockstep.
func (g *Group) streamTo(peer string, conn net.Conn, stopCh <-chan struct{}) error {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	conn.SetDeadline(time.Now().Add(g.cfg.CommitTimeout))
	if err := hrt.WriteRequest(w, hrt.Request{Op: hrt.OpRepl, Fn: g.cfg.Self}); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	resp, err := hrt.ReadResponse(r)
	if err != nil {
		return err
	}
	if resp.Err != "" {
		return fmt.Errorf("cluster: peer %s refused replication: %s", peer, resp.Err)
	}
	conn.SetDeadline(time.Time{})
	resume := wal.Position{Gen: resp.Seq, Records: int64(resp.Ack)}

	p := g.ts.Persist
	gens, err := p.Generations()
	if err != nil {
		return err
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
		newResume, sent, release, serr := g.sendSnapshot(peer, conn, r, w)
		if release != nil {
			// Hold the snapshot generation pinned against pruning until this
			// stream ends — its journal is the next thing we tail.
			defer release()
		}
		if serr != nil {
			return serr
		}
		if sent {
			resume = newResume
		} else {
			resume = wal.Position{Gen: oldest, Records: 0}
		}
	}

	// Announce the stream's catch-up target: our position as of now. The
	// peer holds its /readyz until it has applied up to this point, so a
	// joiner is never marked ready while it still owes history.
	tailGen, tailRecords := p.CurrentPosition()
	conn.SetWriteDeadline(time.Now().Add(g.cfg.CommitTimeout))
	if err := hrt.WriteReplFrame(w, hrt.ReplFrame{
		Type: hrt.ReplFrameTarget, Gen: tailGen, Index: tailRecords,
	}); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	conn.SetWriteDeadline(time.Time{})

	g.cfg.Tracer.Emit(obs.LevelInfo, "cluster_pump_connected",
		obs.Str("peer", peer), obs.Uint("resume_gen", resume.Gen), obs.Int("resume_records", resume.Records))
	// Register at the true resume position: the commit gate must not stall
	// on history the follower already holds, and must not count a joiner
	// as covering positions it has not reached.
	g.tracker.RegisterAt(peer, resume)

	// Ack reader: every ack lifts the peer's tracked position (normalized
	// across sealed generation boundaries), releasing commit waiters. On
	// any read error it closes the connection so the writer side unblocks
	// too.
	seals := newSealTable()
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		defer conn.Close()
		for {
			f, err := hrt.ReadReplFrame(r)
			if err != nil {
				return
			}
			if f.Type == hrt.ReplFrameAck {
				g.tracker.Ack(peer, seals.normalize(wal.Position{Gen: f.Gen, Records: f.Index}))
			}
		}
	}()
	err = g.streamRecords(conn, w, stopCh, resume, peer, seals)
	conn.Close()
	<-readerDone
	return err
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
func (g *Group) sendSnapshot(peer string, conn net.Conn, r *bufio.Reader, w *bufio.Writer) (wal.Position, bool, func(), error) {
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
	conn.SetDeadline(time.Now().Add(g.cfg.CommitTimeout))
	defer conn.SetDeadline(time.Time{})
	if err := hrt.WriteReplFrame(w, hrt.ReplFrame{
		Type: hrt.ReplFrameSnapBegin, Gen: snapGen,
		Payload: encodeSnapMeta(total, sum, chunk, wal.Position{Gen: tailGen, Records: tailRecords}),
	}); err != nil {
		return wal.Position{}, false, release, err
	}
	if err := w.Flush(); err != nil {
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
		hi := lo + int64(chunk)
		if hi > total {
			hi = total
		}
		body := payload[lo:hi]
		framed := make([]byte, 4+len(body))
		binary.LittleEndian.PutUint32(framed[0:4], crc32.ChecksumIEEE(body))
		copy(framed[4:], body)
		conn.SetWriteDeadline(time.Now().Add(g.cfg.CommitTimeout))
		if err := hrt.WriteReplFrame(w, hrt.ReplFrame{
			Type: hrt.ReplFrameSnapChunk, Gen: snapGen, Index: i, Payload: framed,
		}); err != nil {
			return wal.Position{}, false, release, err
		}
		if err := w.Flush(); err != nil {
			return wal.Position{}, false, release, err
		}
		g.snapXferBytes.Add(int64(21 + len(framed)))
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

// streamRecords follows the local journal from resume and ships every
// record beyond it over conn.
func (g *Group) streamRecords(conn net.Conn, w *bufio.Writer, stopCh <-chan struct{}, resume wal.Position, peer string, seals *sealTable) error {
	p := g.ts.Persist
	gen := resume.Gen
	skip := resume.Records
	for {
		opened, count, err := g.streamGeneration(conn, w, stopCh, gen, skip)
		skip = 0
		if err == nil {
			// The generation sealed at count records. Lift an ack that
			// already sits exactly on the boundary (it arrived before the
			// seal count was known) into the next generation's coordinates,
			// and tell the receiver, so it can make the same lift on its
			// applied position — without it, a catch-up target announced as
			// (G, 0) right after a rotation is unreachable for a receiver
			// sitting on (G-1, count) when no further records flow.
			seals.seal(gen, count)
			g.tracker.Ack(peer, seals.normalize(g.tracker.Acked(peer)))
			if !g.ackFrame(conn, w, hrt.ReplFrame{Type: hrt.ReplFrameSeal, Gen: gen, Index: count}) {
				return errors.New("cluster: seal announcement failed")
			}
			gen++
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
		// import), so no gap opens.
		gens, lerr := p.Generations()
		if lerr != nil {
			return lerr
		}
		next, found := uint64(0), false
		for _, gn := range gens {
			if gn > gen {
				next, found = gn, true
				break
			}
		}
		if !found {
			if curGen, _ := p.CurrentPosition(); curGen > gen {
				gen = curGen
				continue
			}
			return err
		}
		gen = next
	}
}

// streamGeneration streams generation gen until it is sealed by a journal
// rotation, then returns nil (plus the generation's final record count)
// so the caller advances to gen+1. The first `skip` records are read but
// not sent (the peer already applied them — its resume position within
// this generation). The generation is pinned against pruning for the
// duration: a snapshot landing mid-stream must not delete the file under
// our tail scanner. The first result reports whether the generation's
// journal file could be opened.
func (g *Group) streamGeneration(conn net.Conn, w *bufio.Writer, stopCh <-chan struct{}, gen uint64, skip int64) (bool, int64, error) {
	p := g.ts.Persist
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
	sealed := false
	for {
		// Acquire the notification channel before reading: an append that
		// lands between the read and the wait closes this channel, so the
		// wakeup cannot be lost.
		notify := p.AppendNotify()
		payload, err := tail.Next()
		if err == nil {
			idx++
			if idx <= skip {
				continue
			}
			if serr := g.sendRecord(conn, w, gen, idx, payload); serr != nil {
				return true, idx, serr
			}
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
		if !poll.Stop() {
			select { // fired during an earlier wait that notify won
			case <-poll.C:
			default:
			}
		}
		poll.Reset(tailPollInterval)
		select {
		case <-notify:
		case <-g.stop:
			return true, idx, errors.New("cluster: group closed")
		case <-stopCh:
			return true, idx, errors.New("cluster: pump stopped")
		case <-poll.C:
			// Paranoia poll: nothing should be lost given the
			// acquire-before-read protocol, but a cheap re-check beats a
			// wedged fleet if that invariant ever breaks.
		}
	}
}

func (g *Group) sendRecord(conn net.Conn, w *bufio.Writer, gen uint64, idx int64, payload []byte) error {
	conn.SetWriteDeadline(time.Now().Add(g.cfg.CommitTimeout))
	f := hrt.ReplFrame{Type: hrt.ReplFrameRecord, Gen: gen, Index: idx, Payload: payload}
	if err := hrt.WriteReplFrame(w, f); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	g.replBytes.Add(int64(21 + len(payload)))
	return nil
}

// ---------------------------------------------------------------------------
// Inbound side

// replResume implements hrt.TCPServer.ReplResume: the newest position
// this replica has applied from sender, handed back in the OpRepl
// handshake so a reconnecting pump resumes where it left off instead of
// re-streaming history.
func (g *Group) replResume(sender string) (uint64, int64) {
	g.recvMu.Lock()
	defer g.recvMu.Unlock()
	pos := g.recvPos[sender]
	return pos.Gen, pos.Records
}

// handleRepl implements hrt.TCPServer.ReplHandler: it owns a connection a
// peer switched into replication mode, applying each record frame to the
// local server and acknowledging it. Snapshot-transfer frames run the
// receiving half of the catch-up protocol. An apply error stops the acks
// and drops the stream — the primary will reconnect and re-stream, and if
// the error is persistent this replica's lag (and its /readyz) make the
// damage visible instead of silently diverging.
func (g *Group) handleRepl(conn net.Conn, r *bufio.Reader, sender string) {
	if sender == "" {
		sender = conn.RemoteAddr().String()
	}
	g.cfg.Tracer.Emit(obs.LevelInfo, "cluster_repl_stream_open", obs.Str("peer", sender))
	g.recvMu.Lock()
	g.recvActive[sender]++
	g.recvMu.Unlock()
	announced := false
	defer func() {
		g.recvMu.Lock()
		if g.recvActive[sender]--; g.recvActive[sender] <= 0 {
			delete(g.recvActive, sender)
		}
		if announced && g.recvAnnounced[sender] > 0 {
			if g.recvAnnounced[sender]--; g.recvAnnounced[sender] == 0 {
				delete(g.recvAnnounced, sender)
			}
		}
		g.recvMu.Unlock()
	}()
	w := bufio.NewWriter(conn)
	// Seal announcements from this sender; applied positions are lifted
	// through sealed boundaries so they stay comparable with targets the
	// sender states in new-generation coordinates.
	seals := newSealTable()
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
		case hrt.ReplFrameRecord:
			g.replReceived.Add(1)
			if err := g.ts.ApplyReplicated(f.Payload); err != nil {
				g.cfg.Tracer.Emit(obs.LevelError, "cluster_repl_apply_error",
					obs.Str("peer", sender), obs.Err(err))
				return
			}
			g.replApplied.Add(1)
			g.replBytes.Add(int64(21 + len(f.Payload)))
			g.recvMu.Lock()
			g.recvPos[sender] = seals.normalize(wal.Position{Gen: f.Gen, Records: f.Index})
			g.recvMu.Unlock()
			if !g.ackFrame(conn, w, hrt.ReplFrame{Type: hrt.ReplFrameAck, Gen: f.Gen, Index: f.Index}) {
				return
			}
		case hrt.ReplFrameSeal:
			// The sender's generation f.Gen ended at f.Index records. Lift
			// our applied position across the boundary; catchingUp compares
			// it against the announced target, and without the lift a target
			// of (G, 0) wedges readiness when the corpus stops right at the
			// rotation.
			seals.seal(f.Gen, f.Index)
			g.recvMu.Lock()
			g.recvPos[sender] = seals.normalize(g.recvPos[sender])
			g.recvMu.Unlock()
		case hrt.ReplFrameTarget:
			pos := wal.Position{Gen: f.Gen, Records: f.Index}
			g.recvMu.Lock()
			if g.recvPos[sender].Before(pos) {
				g.targets[sender] = pos
			} else {
				delete(g.targets, sender)
			}
			// The sender has told us where its journal stands: this stream
			// now counts toward the inbound-side readiness requirement.
			if !announced {
				announced = true
				g.recvAnnounced[sender]++
			}
			g.recvMu.Unlock()
		case hrt.ReplFrameSnapBegin:
			if !g.recvSnapBegin(conn, w, sender, f) {
				return
			}
		case hrt.ReplFrameSnapChunk:
			if !g.recvSnapChunk(conn, w, sender, f) {
				return
			}
		default:
			// Acks and unknown-but-valid frames are sender-side traffic;
			// ignore them on the inbound stream.
		}
	}
}

// ackFrame writes one frame back to the sender; false means the stream
// should be dropped.
func (g *Group) ackFrame(conn net.Conn, w *bufio.Writer, f hrt.ReplFrame) bool {
	conn.SetWriteDeadline(time.Now().Add(g.cfg.CommitTimeout))
	if err := hrt.WriteReplFrame(w, f); err != nil {
		return false
	}
	return w.Flush() == nil
}

// recvSnapBegin answers a snapshot offer: refuse with "proceed" when this
// replica already holds state (the sender then streams records instead),
// refuse with "retry" when a different sender's transfer is mid-flight on
// a live stream, resume a matching interrupted transfer at its staged
// chunk count, or accept a fresh one at chunk zero. False drops the
// stream (protocol error).
func (g *Group) recvSnapBegin(conn net.Conn, w *bufio.Writer, sender string, f hrt.ReplFrame) bool {
	total, sum, chunk, tail, err := decodeSnapMeta(f.Payload)
	if err != nil {
		g.cfg.Tracer.Emit(obs.LevelWarn, "cluster_snap_xfer_bad_offer",
			obs.Str("peer", sender), obs.Err(err))
		return false
	}
	if !g.ts.StateEmpty() {
		return g.ackFrame(conn, w, hrt.ReplFrame{
			Type: hrt.ReplFrameSnapNack, Gen: f.Gen,
			Payload: []byte(hrt.SnapNackProceed + ": state not empty"),
		})
	}
	g.recvMu.Lock()
	if st := g.stage; st != nil && st.sender != sender {
		if g.recvActive[st.sender] > 0 {
			g.recvMu.Unlock()
			return g.ackFrame(conn, w, hrt.ReplFrame{
				Type: hrt.ReplFrameSnapNack, Gen: f.Gen,
				Payload: []byte(hrt.SnapNackRetry + ": transfer from " + st.sender + " in progress"),
			})
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
	return g.ackFrame(conn, w, hrt.ReplFrame{Type: hrt.ReplFrameSnapAck, Gen: f.Gen, Index: startChunk})
}

// recvSnapChunk stages one transfer chunk; on the final chunk it verifies
// the whole payload, imports it as this replica's state base, re-journals
// it, and confirms with the final ack. False drops the stream.
func (g *Group) recvSnapChunk(conn net.Conn, w *bufio.Writer, sender string, f hrt.ReplFrame) bool {
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
	want := st.total - int64(len(st.buf))
	if want > int64(st.chunk) {
		want = int64(st.chunk)
	}
	if int64(len(body)) != want || crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(f.Payload[0:4]) {
		g.recvMu.Unlock()
		g.cfg.Tracer.Emit(obs.LevelWarn, "cluster_snap_xfer_bad_chunk",
			obs.Str("peer", sender), obs.Uint("gen", f.Gen), obs.Int("chunk", f.Index))
		return false
	}
	st.buf = append(st.buf, body...)
	st.chunks++
	g.snapXferBytes.Add(int64(21 + len(f.Payload)))
	// Capture everything needed past this point while the lock is held —
	// a racing re-offer from the same sender may swap the stage out.
	snap := *st
	complete := int64(len(st.buf)) == st.total
	g.recvMu.Unlock()

	if !complete {
		return g.ackFrame(conn, w, hrt.ReplFrame{Type: hrt.ReplFrameSnapAck, Gen: f.Gen, Index: snap.chunks})
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
		return g.ackFrame(conn, w, hrt.ReplFrame{
			Type: hrt.ReplFrameSnapNack, Gen: snap.gen,
			Payload: []byte(hrt.SnapNackProceed + ": state no longer empty"),
		})
	}
	if err != nil {
		g.clearStage()
		g.cfg.Tracer.Emit(obs.LevelError, "cluster_snap_import_error",
			obs.Str("peer", sender), obs.Err(err))
		return false
	}
	g.recvMu.Lock()
	g.recvPos[sender] = wal.Position{Gen: snap.gen, Records: 0}
	if (wal.Position{Gen: snap.gen, Records: 0}).Before(snap.tail) {
		g.targets[sender] = snap.tail
	}
	g.stage = nil
	g.recvMu.Unlock()
	g.snapXferNS.Add(time.Since(snap.start).Nanoseconds())
	g.cfg.Tracer.Emit(obs.LevelInfo, "cluster_snap_imported",
		obs.Str("peer", sender), obs.Uint("gen", snap.gen),
		obs.Int("bytes", snap.total), obs.Dur("took", time.Since(snap.start)))
	return g.ackFrame(conn, w, hrt.ReplFrame{Type: hrt.ReplFrameSnapAck, Gen: snap.gen, Index: snap.nchunks()})
}

func (g *Group) clearStage() {
	g.recvMu.Lock()
	g.stage = nil
	g.recvMu.Unlock()
}
