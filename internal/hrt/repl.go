package hrt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"time"

	"slicehide/internal/interp"
	"slicehide/internal/obs"
)

// Fleet replication support: the hrt-side halves of internal/cluster.
//
// A fleet primary streams its journal records to every peer over the same
// TCP port it serves clients on: a connection that opens with an OpRepl
// request switches into a framed replication stream (record frames one
// way, ack frames back). The receiving replica applies each record into
// its live stores through the code crash recovery replays its journal
// with — so its hidden state, dedup replay cache, and hrt_executed_*
// tallies track the primary's — and appends the record to its own
// journal, making the replicated state survive its own restarts too.
//
// Requests for sessions this replica does not know (no dedup entry) can
// be redirected to their rendezvous owner through the Router hook; the
// client surfaces the redirect as a typed OwnerRedirectError and, when
// its transport has a resolver, re-resolves and retries.

// OpRepl opens a replication stream on a serving connection. It is
// deliberately outside the journal record op range (OpEnter..OpFlush), so
// a replication handshake can never masquerade as a replayable record.
const OpRepl Op = 9

// Replication frame types.
const (
	// ReplFrameRecord carries one journal record payload at (Gen, Index).
	ReplFrameRecord byte = 1
	// ReplFrameAck acknowledges that every record up to (Gen, Index) has
	// been applied and journaled by the follower.
	ReplFrameAck byte = 2

	// Snapshot catch-up transfer (the OpSnapXfer sub-protocol): when the
	// receiver's resume position predates the sender's oldest retained
	// journal generation, the sender ships its newest snapshot in bounded
	// chunks before any record frames flow. The transfer is CRC-framed at
	// both chunk and whole-payload granularity and resumable at chunk
	// granularity across reconnects (the receiver reports its staged
	// contiguous chunk count in the SnapAck answering SnapBegin).

	// ReplFrameSnapBegin offers a snapshot: Gen is the snapshot's
	// generation (the journal cut), Payload a snapXfer meta block (total
	// length, payload CRC, chunk size, sender tail position).
	ReplFrameSnapBegin byte = 3
	// ReplFrameSnapChunk carries chunk Index (0-based) of snapshot Gen;
	// Payload is [crc32 u32][chunk bytes].
	ReplFrameSnapChunk byte = 4
	// ReplFrameSnapAck flows receiver→sender: answering SnapBegin, Index
	// is the chunk to resume from; thereafter Index acknowledges staged
	// chunks, and Index == total chunk count confirms the snapshot was
	// imported and re-journaled.
	ReplFrameSnapAck byte = 5
	// ReplFrameSnapNack declines a snapshot offer; Payload is a reason
	// string starting with SnapNackProceed or SnapNackRetry.
	ReplFrameSnapNack byte = 6
	// ReplFrameTarget announces the sender's current journal position at
	// stream start; the receiver holds /readyz until its applied position
	// for this sender reaches it, so a catching-up replica never reports
	// ready while known records are still in flight.
	ReplFrameTarget byte = 7
	// ReplFrameSeal announces that the sender's generation Gen sealed at
	// Index records: positions (Gen, Index) and (Gen+1, 0) are the same
	// point in the stream. The receiver lifts its applied position across
	// the boundary, so a Target announced in new-generation coordinates —
	// (G, 0) right after a rotation — is recognizable as already met even
	// when no further record ever arrives to advance the applied position
	// past it.
	ReplFrameSeal byte = 8
	// ReplFrameOrigin is a record frame of a record the sender executed
	// itself (no peer showed it to the sender).
	ReplFrameOrigin byte = 9
	// ReplFrameCover says the follower named in Payload has acknowledged
	// the sender's stream up to (Gen, Index); Gen = math.MaxUint64 says the
	// sender no longer follows it (see internal/cluster).
	ReplFrameCover byte = 10
)

// ReplProtoVersion is the replication protocol version the OpRepl
// handshake carries, in the request's Frag and in the response's Val. Both
// sides refuse a peer that speaks another one.
const ReplProtoVersion = 2

// ReplVersionError refuses a replication peer that speaks another protocol
// version: Local is ours, Remote the peer's (0 when it stated none).
type ReplVersionError struct{ Local, Remote int }

func (e *ReplVersionError) Error() string {
	return fmt.Sprintf("hrt: replication protocol version mismatch: this replica speaks %d, the peer %d", e.Local, e.Remote)
}

// CheckReplHello checks the version an OpRepl handshake response states.
func CheckReplHello(resp Response) error {
	v := 0
	if resp.Val.Kind == interp.KindInt {
		v = int(resp.Val.I)
	}
	if v != ReplProtoVersion {
		return &ReplVersionError{Local: ReplProtoVersion, Remote: v}
	}
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	return nil
}

// SnapNack reason prefixes. Proceed means the receiver already holds a
// state base (an earlier import or a complete record stream), so the
// sender should fall back to streaming from its oldest retained
// generation; Retry means the receiver is mid-transfer with another
// sender, so this sender should drop the stream and reconnect later.
const (
	SnapNackProceed = "proceed"
	SnapNackRetry   = "retry"
)

// ReplFrame is one message of the replication stream.
type ReplFrame struct {
	Type byte
	// Gen is the journal generation of the streaming primary.
	Gen uint64
	// Index is the 1-based record index within Gen.
	Index int64
	// Payload is the journal record bytes (record frames only).
	Payload []byte
}

// maxReplPayload bounds a replication frame's payload. Journal records are
// bounded by wal.MaxRecord (64 MiB); mirroring the constant here keeps the
// decoder self-contained.
const maxReplPayload = 1 << 26

// replReadChunk is the growth step for payload reads, so a corrupt length
// field drives at most one wasted chunk of allocation, not 64 MiB.
const replReadChunk = 1 << 16

// ReplHeadSize is the fixed part of a frame: type, gen, index, length.
const ReplHeadSize = 21

func appendReplHead(b []byte, f ReplFrame) ([]byte, error) {
	if len(f.Payload) > maxReplPayload {
		return b, fmt.Errorf("hrt: replication payload of %d bytes exceeds limit %d", len(f.Payload), maxReplPayload)
	}
	b = append(b, f.Type)
	b = binary.LittleEndian.AppendUint64(b, f.Gen)
	b = binary.LittleEndian.AppendUint64(b, uint64(f.Index))
	return binary.LittleEndian.AppendUint32(b, uint32(len(f.Payload))), nil
}

// WriteReplFrame encodes one frame into w: the head is built in w's own
// free space and the payload copied behind it, so a frame costs no
// allocation. The caller flushes.
func WriteReplFrame(w *bufio.Writer, f ReplFrame) error {
	if w.Available() < ReplHeadSize {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	head, err := appendReplHead(w.AvailableBuffer(), f)
	if err != nil {
		return err
	}
	if _, err := w.Write(head); err != nil {
		return err
	}
	_, err = w.Write(f.Payload)
	return err
}

// ReadReplFrame decodes one replication frame from r. The decoder is
// fuzzed (FuzzReplFrame): it must never panic, and a lying length field
// must not drive allocation past the bytes actually present.
func ReadReplFrame(r io.Reader) (ReplFrame, error) {
	var head [ReplHeadSize]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return ReplFrame{}, err
	}
	f := ReplFrame{
		Type:  head[0],
		Gen:   binary.LittleEndian.Uint64(head[1:9]),
		Index: int64(binary.LittleEndian.Uint64(head[9:17])),
	}
	if f.Type < ReplFrameRecord || f.Type > ReplFrameCover {
		return ReplFrame{}, fmt.Errorf("hrt: unknown replication frame type %d", f.Type)
	}
	if f.Index < 0 {
		return ReplFrame{}, fmt.Errorf("hrt: replication frame has negative index")
	}
	length := binary.LittleEndian.Uint32(head[17:21])
	if length > maxReplPayload {
		return ReplFrame{}, fmt.Errorf("hrt: replication frame length %d exceeds limit %d", length, maxReplPayload)
	}
	remaining := int(length)
	for remaining > 0 {
		chunk := remaining
		if chunk > replReadChunk {
			chunk = replReadChunk
		}
		start := len(f.Payload)
		f.Payload = append(f.Payload, make([]byte, chunk)...)
		if _, err := io.ReadFull(r, f.Payload[start:]); err != nil {
			return ReplFrame{}, err
		}
		remaining -= chunk
	}
	return f, nil
}

// ---------------------------------------------------------------------------
// Owner redirect

// ownerRedirectMsg is the distinct marker carried in Response.Err when a
// replica refuses a session because another live replica owns it.
const ownerRedirectMsg = "owned by fleet peer"

// ownerRedirectErr formats the wire form of the redirect for session,
// naming the owning replica so the client can redial it.
func ownerRedirectErr(session uint64, owner string) string {
	return fmt.Sprintf("hrt: session %d %s %s", session, ownerRedirectMsg, owner)
}

// OwnerRedirectError is the typed, client-side form of a fleet owner
// redirect: the replica at Addr refused the session because Owner is its
// rendezvous owner. A fleet session's stream treats it as retryable (the
// next pass starts at the owner); a stream on one connection surfaces it to
// its caller.
type OwnerRedirectError struct {
	// Addr is the replica that refused the session ("" when not recorded).
	Addr string
	// Owner is the replica the server named as the session's owner.
	Owner string
	// Session is the redirected session id (0 when unparsable).
	Session uint64
	// Detail is the server-reported message.
	Detail string
}

func (e *OwnerRedirectError) Error() string {
	msg := e.Detail
	if msg == "" {
		msg = ownerRedirectErr(e.Session, e.Owner)
	}
	if e.Addr != "" {
		return fmt.Sprintf("hidden server %s: %s", e.Addr, msg)
	}
	return msg
}

// Hint returns remediation guidance for the redirect.
func (e *OwnerRedirectError) Hint() string {
	owner := e.Owner
	if owner == "" {
		owner = "the named owner"
	}
	return fmt.Sprintf("the fleet places this session on %s; "+
		"point the client at that replica, or pass the full fleet address "+
		"list (slicehide run -cluster, or a cluster.MuxPool) so "+
		"the transport can re-resolve the owner itself", owner)
}

// ParseOwnerRedirect upgrades a wire message carrying the redirect marker
// to the typed error (nil when the marker is absent). addr names the
// replica that produced the message, for the error text. A fleet
// session's stream (FollowOwner) parses redirects itself to re-home the
// session without tearing the shared connection down.
func ParseOwnerRedirect(msg, addr string) *OwnerRedirectError {
	i := strings.Index(msg, ownerRedirectMsg)
	if i < 0 {
		return nil
	}
	owner := strings.TrimSpace(msg[i+len(ownerRedirectMsg):])
	if j := strings.IndexAny(owner, " ;,"); j >= 0 {
		owner = owner[:j]
	}
	return &OwnerRedirectError{
		Addr:    addr,
		Owner:   owner,
		Session: parseEvictedSession(msg), // same "session <id>" shape
		Detail:  msg,
	}
}

// Router decides, per stamped request, whether this replica should serve
// the session or redirect the client to the owning peer. known reports
// whether the session already has local replay state — a session this
// replica executed or had replicated to it is always served locally
// (promotion after a primary death is implicit: the replicated state is
// here and the old owner is no longer live).
type Router interface {
	Route(session uint64, known bool) (owner string, redirect bool)
}

// ---------------------------------------------------------------------------
// TCPServer: redirect check + follower-side record application

// routeRedirect consults the Router for a session request (serveMux
// admits only stamped ones), returning a redirect response when another
// live replica owns the session.
func (ts *TCPServer) routeRedirect(req Request) (Response, bool) {
	if ts.Router == nil {
		return Response{}, false
	}
	owner, redirect := ts.Router.Route(req.Session, ts.dedup.Has(req.Session))
	if !redirect {
		return Response{}, false
	}
	// A redirect executes nothing: it acknowledges only what this replica
	// already holds of the session.
	return Response{
		Seq: req.Seq,
		Ack: ts.dedup.HighWater(req.Session),
		Err: ownerRedirectErr(req.Session, owner),
	}, true
}

// ApplyReplicated applies one streamed journal record to the live server
// through the code recovery replays the journal with — Server.applyRecord
// for hidden-store state and execution tallies, dedupEntry.settle for the
// replay cache — and, when a durability layer is attached, appends the
// raw record to this replica's own journal, so replicated sessions
// survive this replica's restarts the same way its own do. Records at or
// below the session's replay high-water mark are acknowledged without
// effect, which makes genesis re-streams after a pump reconnect and
// full-mesh echoes idempotent. The apply claims the session's in-flight
// slot (the same serialization live requests use), so an echo of a record
// this replica is concurrently executing after a promotion can never
// double-apply. Applies of different sessions run concurrently: their
// stores are disjoint, and writes to the shared globals store meet in its
// version guard, which makes their order irrelevant.
//
// In a full mesh most deliveries are duplicates (every record reaches a
// replica once per peer that holds it), so a duplicate is recognized from
// the record's stamp alone, before the decode.
func (ts *TCPServer) ApplyReplicated(payload []byte) error {
	if ts.dedup == nil {
		return errors.New("hrt: server is not serving")
	}
	if ts.Persist == nil {
		return ts.landReplicated(payload)
	}
	var err error
	ts.Persist.land(func() { err = ts.landReplicated(payload) })
	return err
}

// landReplicated claims the record's session slot and, unless the record
// is a duplicate, decodes and applies it, journals it (durable servers;
// waking no follower) and settles it into the replay state; a failed
// landing releases the slot with nothing settled.
func (ts *TCPServer) landReplicated(payload []byte) error {
	session, seq, ok := RecordStamp(payload)
	if !ok {
		return errors.New("hrt: replicated record too short to carry a stamp")
	}
	d := ts.dedup
	sh, e, isNew := d.entry(session)
	if isNew {
		defer d.traceEvicted(d.evictLocked(sh))
	}
	if seq <= e.lastSeq {
		sh.mu.Unlock()
		return nil // duplicate: re-stream or mesh echo of an observed record
	}
	e.busy = true
	sh.mu.Unlock()
	rec, err := decodeRecord(payload)
	if err != nil {
		err = fmt.Errorf("hrt: replicated record: %w", err)
	} else if err = ts.Server.applyRecord(rec); err == nil && ts.Persist != nil {
		var held bool
		held, err = ts.Persist.appendHeld(payload, false)
		ts.Persist.finish(held)
	}
	if err != nil {
		sh.release(session, e, seq, false, nil)
		return err
	}
	sh.release(session, e, seq, rec.noReply, &rec.resp)
	return nil
}

// serveRepl switches a serving connection into replication-stream mode
// after an OpRepl handshake: the handshake is acknowledged with a response
// carrying this replica's resume position for the sender (Seq = journal
// generation, Ack = record index — both zero for a sender never heard
// from, which asks for the stream from the beginning), the idle deadline
// is lifted (streams legitimately sit quiet), and the connection is handed
// to the ReplHandler for the stream's lifetime. req.Fn carries the
// sender's self-declared fleet address; resume positions are tracked per
// sender, so a reconnecting pump streams only the delta. The two sides also
// trade boot ids — the sender's in req.Session, ours (ReplBoot) in the
// response's Inst — and protocol versions: the sender's in req.Frag, ours in
// the response's Val. A sender of another version is refused.
func (ts *TCPServer) serveRepl(conn net.Conn, r *bufio.Reader, w *bufio.Writer, req Request) {
	refuse := ""
	if ts.ReplHandler == nil {
		refuse = "hrt: this server does not accept replication streams"
	} else if req.Frag != ReplProtoVersion {
		err := &ReplVersionError{Local: ReplProtoVersion, Remote: req.Frag}
		ts.Tracer.Emit(obs.LevelWarn, "repl_version_refused", obs.Str("peer", req.Fn), obs.Err(err))
		refuse = err.Error()
	}
	version := interp.IntV(ReplProtoVersion)
	if refuse != "" {
		if WriteResponse(w, Response{Val: version, Err: refuse}) == nil {
			w.Flush()
		}
		return
	}
	resp := Response{Val: version, Inst: int64(ts.ReplBoot)}
	if ts.ReplResume != nil {
		gen, index := ts.ReplResume(req.Fn)
		resp.Seq = gen
		resp.Ack = uint64(index)
	}
	if err := WriteResponse(w, resp); err != nil {
		return
	}
	if err := w.Flush(); err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})
	ts.ReplHandler(conn, r, req.Fn, req.Session)
}

// ---------------------------------------------------------------------------
// Dedup replication hooks

// Has reports whether session has local replay state (without creating
// any). The fleet router serves known sessions locally and only considers
// redirecting unknown ones.
func (d *Dedup) Has(session uint64) bool {
	d.lazyInit()
	sh := d.shard(session)
	sh.mu.Lock()
	_, ok := sh.sessions[session]
	sh.mu.Unlock()
	return ok
}

// ---------------------------------------------------------------------------
// Durability replication hooks

// ReplCommitter gates responses on replication: after a record lands in
// the journal at (gen, records), the durable request path calls
// WaitCommitted before releasing the response, so a client-acknowledged
// record is always on every connected follower before the client can act
// on the answer — the property failover correctness rests on.
type ReplCommitter interface {
	WaitCommitted(gen uint64, records int64)
}

// SetCommitter installs the replication commit gate (nil removes it).
func (p *Durability) SetCommitter(c ReplCommitter) {
	p.mu.Lock()
	p.committer = c
	p.mu.Unlock()
}

// CurrentPosition reports the journal's current replication position: the
// open generation and the number of records it holds.
func (p *Durability) CurrentPosition() (gen uint64, records int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gen, int64(p.sinceSnap)
}

// WakeFollowers wakes the journal tail followers for records no wake has
// covered (see advance), so their pass-over lifts come before the poll.
func (p *Durability) WakeFollowers() {
	p.mu.Lock()
	p.wakeLocked(p.unwoken > 0)
	p.mu.Unlock()
}

// JournalFile returns the path of generation gen's journal (for the
// replication pump's tail scanner).
func (p *Durability) JournalFile(gen uint64) string { return p.journalPath(gen) }

// Generations lists the journal generations present on disk, ascending.
func (p *Durability) Generations() ([]uint64, error) {
	_, journals, err := p.listGenerations()
	if err != nil {
		return nil, err
	}
	sort.Slice(journals, func(i, j int) bool { return journals[i] < journals[j] })
	return journals, nil
}

// AppendNotify returns a channel that is closed at the next wake (see
// advance). Acquire the channel before polling the tail: the wake after
// acquisition closes it, so no wakeup is lost.
func (p *Durability) AppendNotify() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.notify == nil {
		p.notify = make(chan struct{})
	}
	return p.notify
}
