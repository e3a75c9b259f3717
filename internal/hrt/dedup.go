package hrt

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slicehide/internal/obs"
)

// Dedup is the server half of the exactly-once scheme. It executes each
// session's requests in sequence order exactly once, keyed by the
// (session, seq) stamp the client puts on every request, and answers
// replays of reply-bearing requests from a cache — so a retried
// Enter/Exit/Call mutates hidden state exactly once no matter how many
// times a faulty link forced the client to re-send it.
//
// Pipelined clients additionally send reply-free requests (ReqNoReply)
// one-way. Dedup executes those in order too, but defers their errors: the
// first failure poisons the session and surfaces in the next reply-bearing
// response or flush barrier, where the in-order semantics put it. A
// sequence gap (a one-way frame lost on a severed connection) makes Dedup
// refuse to execute the reply-bearing request that revealed it; the
// response carries RespResend plus the highest executed seq in Ack, and
// the client replays its in-flight window from Ack+1. Replayed frames at
// or below the session's high-water mark are skipped silently, preserving
// exactly-once across the resend.
//
// Eviction is fenced two ways, because dropping a live session's lastSeq
// high-water mark would let a later retry re-execute already-applied
// mutations as if fresh: sessions seen within EvictGrace are not evicted
// (the cache temporarily exceeds the cap instead), and a request stamped
// seq > 1 for a session the cache has never seen — the signature of a
// post-eviction replay or a server restart — is bounced with a distinct
// session-evicted error rather than executed.
type Dedup struct {
	Inner Transport
	// MaxSessions caps the cache; the least recently used idle sessions
	// are evicted beyond it. Default 1024.
	MaxSessions int
	// EvictGrace protects sessions seen within this window from eviction
	// even when the cache is over cap; their clients are likely still
	// alive, and evicting them would discard the replay high-water mark
	// exactly-once depends on. 0 disables the grace fence (the bounce
	// fence below still holds).
	EvictGrace time.Duration
	// Shards stripes the session cache across independently locked
	// segments so concurrent sessions never contend on one mutex (a
	// session's requests still serialize on its own entry). Values < 2
	// mean a single stripe — the pre-sharding behavior, and the default
	// for bare construction. MaxSessions divides across stripes
	// (rounded up), so each stripe evicts by its own LRU clock; the
	// global cap is approximate by at most Shards-1 sessions, the usual
	// striped-LRU contract.
	Shards int
	// Tracer, when set, receives replay/resend/evict/bounce events.
	Tracer *obs.Tracer
	// Persist, when set, makes execution durable: requests execute on its
	// server with their hidden-store deltas captured, and are journaled
	// while the request holds its session's in-flight slot — no stripe
	// lock — before the response is released and before lastSeq moves. The
	// slot keeps the journal in per-session seq order, and a crash never
	// acknowledges state it cannot recover. Replays, gaps, and bounces
	// touch no state and are not journaled.
	Persist *Durability
	// Replays counts requests answered from the cache or skipped as
	// already-executed duplicates.
	Replays atomic.Int64
	// Resends counts reply-bearing requests bounced with RespResend
	// because a sequence gap showed an earlier one-way frame was lost.
	Resends atomic.Int64
	// Evictions counts sessions dropped by the cache cap.
	Evictions atomic.Int64
	// Bounces counts requests refused with the session-evicted error
	// because their session's replay state was lost.
	Bounces atomic.Int64

	// initOnce builds the shard slice lazily so bare struct-literal
	// construction (the test idiom) keeps working.
	initOnce sync.Once
	shards   []*dedupShard
	mask     uint64
	// now is stubbed by tests driving the grace window.
	now func() time.Time
}

// dedupShard is one independently locked stripe of the session cache.
type dedupShard struct {
	mu       sync.Mutex
	sessions map[uint64]*dedupEntry
	clock    uint64
	// max is this stripe's share of MaxSessions.
	max int
}

// dedupEntry is one session's slot.
type dedupEntry struct {
	// lastSeq is the high-water mark: every seq ≤ lastSeq has been
	// executed (or deliberately skipped on a poisoned session) in order.
	lastSeq uint64
	// respSeq/resp cache the newest reply-bearing response, so a client
	// whose deadline fired can replay the request and get the same answer
	// without re-execution.
	respSeq uint64
	resp    Response
	// deferred holds the first error a reply-free request produced; once
	// set, later requests are skipped (not executed) and the error
	// surfaces in the next reply-bearing response.
	deferred string
	// lost marks a session whose replay state was evicted (or predates a
	// server restart): its true high-water mark is unknown, so nothing is
	// executed and every reply-bearing request bounces with the
	// session-evicted error.
	lost bool
	// busy is the in-flight slot: set while a request of this session is
	// executing, or waiting for its journal record to become durable.
	// Requests within a session run strictly one at a time, in seq order,
	// and the holder publishes lastSeq/respSeq/resp/deferred when it clears
	// busy. wait exists only while someone waits: a duplicate or successor
	// that finds the slot busy makes it, and release closes it.
	busy bool
	wait chan struct{}
	used uint64
	// lastSeen timestamps the session's newest request, for EvictGrace.
	lastSeen time.Time
}

const defaultMaxSessions = 1024

// sessionEvictedMsg is the distinct marker carried in Response.Err when a
// request is refused because its session's replay state was lost.
const sessionEvictedMsg = "session replay state evicted"

// SessionEvictedError is the typed, client-side form of the bounce: it
// names the server and session so the failure is actionable instead of a
// bare wire string.
type SessionEvictedError struct {
	// Addr is the hidden server that refused the session ("" when the
	// transport is in-process or the address was not recorded).
	Addr string
	// Session is the bounced session id, parsed from the server's message
	// (0 when the message did not carry one).
	Session uint64
	// Detail is the server-reported message.
	Detail string
}

func (e *SessionEvictedError) Error() string {
	msg := e.Detail
	if msg == "" {
		msg = "hrt: " + sessionEvictedMsg
	}
	if e.Addr != "" {
		return fmt.Sprintf("hidden server %s: %s", e.Addr, msg)
	}
	return msg
}

// Hint returns the remediation guidance for the bounce: what happened and
// what the operator can do about it.
func (e *SessionEvictedError) Hint() string {
	return "the hidden server lost this session's exactly-once replay state " +
		"(server restart without -data-dir, or replay-cache eviction); " +
		"re-run the program to open a fresh session, and run hiddend with " +
		"-data-dir (and a larger -max-sessions) to survive restarts"
}

// parseEvictedSession extracts the session id from the server's bounce
// message ("hrt: session <id> ...").
func parseEvictedSession(msg string) uint64 {
	var n uint64
	if i := strings.Index(msg, "session "); i >= 0 {
		_, _ = fmt.Sscanf(msg[i:], "session %d", &n) // no id leaves n 0
	}
	return n
}

func (d *Dedup) timeNow() time.Time {
	if d.now != nil {
		return d.now()
	}
	return time.Now()
}

// lazyInit builds the stripe slice on first use. The per-stripe cap is
// ceil(MaxSessions/stripes) so the configured cap is honored exactly with
// one stripe (every existing eviction test) and within Shards-1 overall.
func (d *Dedup) lazyInit() {
	d.initOnce.Do(func() {
		n := shardCount(d.Shards)
		max := d.MaxSessions
		if max <= 0 {
			max = defaultMaxSessions
		}
		perShard := (max + n - 1) / n // ≥ 1, as max and n are
		d.shards = make([]*dedupShard, n)
		d.mask = uint64(n - 1)
		for i := range d.shards {
			d.shards[i] = &dedupShard{
				sessions: make(map[uint64]*dedupEntry),
				max:      perShard,
			}
		}
	})
}

// shard maps a session id to its stripe (same mixed-mask scheme as
// Server.shard, so a session's replay state and hidden state land on
// matching stripes of their respective structures).
func (d *Dedup) shard(session uint64) *dedupShard {
	if d.mask == 0 {
		return d.shards[0]
	}
	return d.shards[mix64(session)&d.mask]
}

// RoundTrip executes req exactly once per (session, seq), in sequence
// order, answering replays from the cache. For reply-free requests the
// returned Response is meaningless and must not be written back to the
// client.
func (d *Dedup) RoundTrip(req Request) (Response, error) {
	resp, held := d.roundTrip(req)
	d.Persist.finish(held)
	return resp, nil
}

// roundTrip is RoundTrip reporting held: the fsync committer released the
// request's record, and the caller finishes with it (Durability.finish).
func (d *Dedup) roundTrip(req Request) (resp Response, held bool) {
	sh, e, isNew := d.entry(req.Session)
	if isNew {
		if req.Seq > 1 {
			// A session the cache has never seen must start at seq 1. A
			// higher first seq means its entry was evicted or the server
			// restarted: the high-water mark is gone, and executing could
			// replay an already-applied mutation. Refuse, loudly.
			e.lost = true
		}
		// Tracer sinks are caller-supplied code: the evictions are reported
		// once every path below has let go of the stripe lock.
		defer d.traceEvicted(d.evictLocked(sh))
	}

	if e.lost {
		// Nothing executes on a lost session; it only drains, bouncing
		// every reply-bearing request with the distinct eviction error the
		// client surfaces instead of silently re-executing.
		if req.Seq > e.lastSeq {
			e.lastSeq = req.Seq
		}
		d.Bounces.Add(1)
		sh.mu.Unlock()
		d.Tracer.Emit(obs.LevelWarn, "dedup_bounce",
			obs.Uint("session", req.Session), obs.Uint("seq", req.Seq))
		if req.NoReply() {
			return Response{}, false
		}
		return Response{
			Seq: req.Seq,
			Ack: req.Seq,
			Err: fmt.Sprintf("hrt: session %d %s; cannot replay request %d exactly once", req.Session, sessionEvictedMsg, req.Seq),
		}, false
	}

	switch {
	case req.Seq <= e.lastSeq:
		// Already executed (or skipped). One-way duplicates — window
		// replays after a resend — are dropped silently.
		last, cached, hit := e.lastSeq, e.resp, req.Seq == e.respSeq
		sh.mu.Unlock()
		d.Replays.Add(1)
		d.Tracer.Emit(obs.LevelDebug, "dedup_replay",
			obs.Uint("session", req.Session), obs.Uint("seq", req.Seq))
		if req.NoReply() {
			return Response{}, false
		}
		if hit {
			return cached, false
		}
		return Response{
			Seq: req.Seq,
			Ack: last,
			Err: fmt.Sprintf("hrt: stale request %d for session %d (newest %d)", req.Seq, req.Session, last),
		}, false

	case req.Seq > e.lastSeq+1:
		// Sequence gap: an earlier frame never arrived. Executing out of
		// order would corrupt hidden state, so don't. One-way frames are
		// dropped (the barrier will flush out the loss); reply-bearing
		// requests bounce with a resend demand.
		last := e.lastSeq
		sh.mu.Unlock()
		if req.NoReply() {
			return Response{}, false
		}
		d.Resends.Add(1)
		d.Tracer.Emit(obs.LevelInfo, "dedup_gap_resend",
			obs.Uint("session", req.Session), obs.Uint("seq", req.Seq), obs.Uint("ack", last))
		return Response{Seq: req.Seq, Ack: last, Flags: RespResend}, false
	}

	// req.Seq == e.lastSeq+1: the next request in order. Claim the
	// session's in-flight slot and let go of the stripe: execution, the
	// journal append and the wait for its fsync all run with no stripe
	// lock held, so other sessions of the stripe keep executing and their
	// records queue behind the same fsync. The slot alone keeps this
	// session's requests — hence its journal records — in seq order, and
	// nobody else touches the entry's replay fields while it is held.
	e.busy = true
	deferred := e.deferred
	sh.mu.Unlock()

	// A poisoned session drains its window without touching hidden state;
	// the deferred error reports instead.
	var eff *recEffects
	if deferred == "" {
		if d.Persist != nil {
			resp, eff = d.Persist.server.dispatch(req, true)
		} else {
			var err error
			resp, err = d.Inner.RoundTrip(req)
			if err != nil {
				// Inner is in-process here; its errors are protocol
				// violations, which are answers too — record them so a replay
				// gets the same verdict without re-executing.
				resp = Response{Err: err.Error()}
			}
		}
	} else if !req.NoReply() {
		// The failure happened earlier in program order; it outranks
		// whatever this request produced.
		resp = Response{Err: deferred}
	}
	resp.Seq, resp.Ack = req.Seq, req.Seq
	if d.Persist != nil {
		var perr error
		if held, perr = d.Persist.journal(req, resp, eff); perr != nil && (resp.Err == "" || !req.NoReply()) {
			// The record is not durable, so the answer must not be either:
			// acknowledge nothing a restart would take back (a one-way
			// request's own error outranks it as the deferred error).
			resp = Response{Seq: req.Seq, Ack: req.Seq, Err: perr.Error()}
		}
	}

	// Publish only now that the record is journaled: HighWater (the mux
	// window ack) and the replay cache never run ahead of the journal, and
	// the session's next request may not start before this one's record
	// is on disk.
	sh.release(req.Session, e, req.Seq, req.NoReply(), &resp)
	if req.NoReply() {
		return Response{}, held
	}
	return resp, held
}

// entry returns session's entry, created if absent (isNew), with its
// stripe locked: the one way live execution, a replicated apply and
// recovery find a session's slot. It ticks the entry's LRU clock and grace
// stamp before any eviction can run, so a newcomer is never its own victim
// and is covered by the grace window from the start, then waits out any
// request of the session in flight, so requests run strictly in order and
// duplicates observe the settled result. A wait ends with a fresh lookup:
// the holder may have dropped the entry (a failed landing on a fresh
// session) or an eviction may have taken it, and state settled into a
// detached entry would be lost. The caller unlocks sh.mu; a caller that
// created the entry decides whether it may evict others.
func (d *Dedup) entry(session uint64) (sh *dedupShard, e *dedupEntry, isNew bool) {
	d.lazyInit()
	sh = d.shard(session)
	sh.mu.Lock()
	for {
		sh.clock++
		e = sh.sessions[session]
		if isNew = e == nil; isNew {
			e = &dedupEntry{}
			sh.sessions[session] = e
		}
		// lastSeen only matters to the grace fence, so skip the clock read
		// on the hot path when no grace window is configured.
		e.used = sh.clock
		if d.EvictGrace > 0 {
			e.lastSeen = d.timeNow()
		}
		if !e.busy {
			return sh, e, isNew
		}
		if e.wait == nil {
			e.wait = make(chan struct{})
		}
		wait := e.wait
		sh.mu.Unlock()
		<-wait
		sh.mu.Lock()
	}
}

// release ends a landing that holds the session's in-flight slot: it
// settles seq into the replay state (see settle) when the landing produced
// resp, then lets go of the slot. A landing that failed (nil resp)
// settles nothing and drops an entry it left empty.
func (sh *dedupShard) release(session uint64, e *dedupEntry, seq uint64, noReply bool, resp *Response) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if resp != nil {
		e.settle(seq, noReply, *resp)
	} else if e.lastSeq == 0 && e.respSeq == 0 && !e.lost && e.deferred == "" {
		delete(sh.sessions, session)
	}
	e.busy = false
	if e.wait != nil {
		close(e.wait)
		e.wait = nil
	}
}

// settle publishes request seq of the session as processed: the one rule
// by which a live execution, a replicated record and a recovered record
// all update the replay state. The high-water mark moves to seq; a
// reply-bearing request's response (with the error that answered it, if
// any) becomes the cached reply; a one-way request's error poisons the
// session unless an earlier one already did. A poisoned session stays
// poisoned after a reply surfaced its error. Caller holds the stripe lock.
func (e *dedupEntry) settle(seq uint64, noReply bool, resp Response) {
	e.lastSeq = seq
	if noReply {
		if e.deferred == "" {
			e.deferred = resp.Err
		}
		return
	}
	e.respSeq = seq
	e.resp = resp
	e.resp.Seq, e.resp.Ack = seq, seq
}

// evictLocked drops the stripe's least recently used idle sessions while
// over its share of the cap, sparing sessions seen within the grace
// window — their clients are likely still alive, and losing their
// high-water mark would break exactly-once on the next retry. When
// everyone is in grace (or executing) the stripe runs over cap instead.
// Caller holds sh.mu and passes the returned victims to traceEvicted once
// it has released it.
func (d *Dedup) evictLocked(sh *dedupShard) (evicted []uint64) {
	var cutoff time.Time
	if d.EvictGrace > 0 {
		cutoff = d.timeNow().Add(-d.EvictGrace)
	}
	for len(sh.sessions) > sh.max {
		var victim uint64
		var oldest uint64
		found := false
		for id, e := range sh.sessions {
			if e.busy {
				continue // still executing; never evict in-flight work
			}
			if d.EvictGrace > 0 && e.lastSeen.After(cutoff) {
				continue // seen within grace; presumed alive
			}
			if !found || e.used < oldest {
				victim, oldest, found = id, e.used, true
			}
		}
		if !found {
			break
		}
		delete(sh.sessions, victim)
		d.Evictions.Add(1)
		evicted = append(evicted, victim)
	}
	return evicted
}

// traceEvicted reports evictLocked's victims. Tracer sinks are
// caller-supplied code, so this runs with no stripe lock held.
func (d *Dedup) traceEvicted(evicted []uint64) {
	for _, id := range evicted {
		d.Tracer.Emit(obs.LevelInfo, "dedup_evict", obs.Uint("session", id))
	}
}

// HighWater reports a session's replay high-water mark: every sequence
// number at or below it has been processed in order (executed, skipped on
// a poisoned session, or drained on a lost one). The multiplexed server's
// window updates acknowledge exactly this — acknowledging the sequence
// number of a frame that was silently dropped on a gap would let the
// client prune requests the server never executed, leaving a hole no
// resend could ever refill. Unknown sessions report 0.
func (d *Dedup) HighWater(session uint64) uint64 {
	if session == 0 {
		return 0
	}
	d.lazyInit()
	sh := d.shard(session)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.sessions[session]; e != nil {
		return e.lastSeq
	}
	return 0
}

// Sessions reports the number of cached sessions across all stripes (for
// tests and the hrt_dedup_sessions gauge).
func (d *Dedup) Sessions() int {
	d.lazyInit()
	n := 0
	for _, sh := range d.shards {
		sh.mu.Lock()
		n += len(sh.sessions)
		sh.mu.Unlock()
	}
	return n
}
