package hrt

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"slicehide/internal/interp"
)

// execRecorder is a Dedup inner transport that records which (session,
// seq) pairs actually executed, so tests can assert exactly-once.
type execRecorder struct {
	mu    sync.Mutex
	execs map[string]int
}

func (r *execRecorder) key(req Request) string {
	return fmt.Sprintf("%d/%d", req.Session, req.Seq)
}

func (r *execRecorder) RoundTrip(req Request) (Response, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.execs == nil {
		r.execs = make(map[string]int)
	}
	r.execs[r.key(req)]++
	return Response{}, nil
}

func (r *execRecorder) count(session, seq uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.execs[fmt.Sprintf("%d/%d", session, seq)]
}

// TestDedupEvictionReplayBounces is the regression test for the
// eviction/exactly-once hole: evicting an idle-but-live session discarded
// its lastSeq high-water mark, so when its client later retried a request
// (say, because the response was lost in transit) the server had no
// memory of having executed it. Pre-fix, a retried seq>1 landed in the
// sequence-gap branch and was answered with an empty-error RespResend
// that a synchronous client cannot tell from success — and a pipelined
// client obeying the resend demand re-executed the whole window,
// double-applying hidden-state mutations. Post-fix the request is
// refused with the distinct session-evicted error and nothing executes.
func TestDedupEvictionReplayBounces(t *testing.T) {
	rec := &execRecorder{}
	d := &Dedup{Inner: rec, MaxSessions: 2}

	// Session 1 executes requests 1 and 2; the response to 2 is "lost"
	// (the client will retry it below).
	for seq := uint64(1); seq <= 2; seq++ {
		if _, err := d.RoundTrip(Request{Op: OpCall, Session: 1, Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	// Other clients push session 1 out of the replay cache.
	for s := uint64(2); s <= 4; s++ {
		if _, err := d.RoundTrip(Request{Op: OpCall, Session: s, Seq: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if d.Evictions.Load() == 0 {
		t.Fatal("setup failed: no eviction happened")
	}

	// Session 1's client retries request 2.
	resp, err := d.RoundTrip(Request{Op: OpCall, Session: 1, Seq: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.count(1, 2); got != 1 {
		t.Errorf("request 1/2 executed %d times, want exactly once", got)
	}
	if resp.Err == "" {
		t.Fatalf("retry after eviction answered without an error (flags %#x): indistinguishable from success", resp.Flags)
	}
	if !IsSessionEvicted(errors.New(resp.Err)) {
		t.Errorf("retry after eviction answered %q, want the session-evicted error", resp.Err)
	}
	if d.Bounces.Load() == 0 {
		t.Error("bounce not counted")
	}

	// The pipelined client reacts to errors by replaying its window
	// (one-way frames first). Those must not execute either.
	if _, err := d.RoundTrip(Request{Op: OpCall, Session: 1, Seq: 1, Flags: ReqNoReply}); err != nil {
		t.Fatal(err)
	}
	resp, err = d.RoundTrip(Request{Op: OpCall, Session: 1, Seq: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.count(1, 1); got != 1 {
		t.Errorf("window replay executed 1/1 %d times, want exactly once", got)
	}
	if !IsSessionEvicted(errors.New(resp.Err)) {
		t.Errorf("window replay answered %q, want the session-evicted error", resp.Err)
	}
}

// TestDedupEvictGrace drives the grace fence with a stubbed clock:
// sessions seen within EvictGrace are not evicted even when the cache is
// over cap, and become evictable once the grace expires.
func TestDedupEvictGrace(t *testing.T) {
	now := time.Unix(1000, 0)
	d := &Dedup{Inner: &execRecorder{}, MaxSessions: 2, EvictGrace: time.Minute}
	d.now = func() time.Time { return now }

	for s := uint64(1); s <= 4; s++ {
		if _, err := d.RoundTrip(Request{Op: OpCall, Session: s, Seq: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// All four sessions are within grace: the cache runs over cap rather
	// than sacrificing a live session's replay state.
	if got := d.Sessions(); got != 4 {
		t.Errorf("cache holds %d sessions, want all 4 protected by grace", got)
	}
	if d.Evictions.Load() != 0 {
		t.Errorf("evictions = %d during grace", d.Evictions.Load())
	}

	// After the grace expires, the next arrival shrinks the cache back
	// under the cap (plus the newcomer).
	now = now.Add(2 * time.Minute)
	if _, err := d.RoundTrip(Request{Op: OpCall, Session: 5, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if got := d.Sessions(); got > 2 {
		t.Errorf("cache holds %d sessions after grace expiry, cap is 2", got)
	}
	if d.Evictions.Load() == 0 {
		t.Error("no evictions after grace expiry")
	}
}

// TestDedupFreshSessionStartsAtOne: the bounce fence must not misfire on
// genuinely new sessions, which always start at seq 1.
func TestDedupFreshSessionStartsAtOne(t *testing.T) {
	rec := &execRecorder{}
	d := &Dedup{Inner: rec}
	resp, err := d.RoundTrip(Request{Op: OpCall, Session: 9, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" || rec.count(9, 1) != 1 {
		t.Errorf("fresh session bounced: err=%q execs=%d", resp.Err, rec.count(9, 1))
	}
	if d.Bounces.Load() != 0 {
		t.Errorf("bounces = %d for a fresh session", d.Bounces.Load())
	}
}

// IsSessionEvicted reports whether err marks a request the server bounced
// because its session's exactly-once replay state was evicted: the typed
// error, or the untyped wire message it wraps.
func IsSessionEvicted(err error) bool {
	if err == nil {
		return false
	}
	var se *SessionEvictedError
	if errors.As(err, &se) {
		return true
	}
	return strings.Contains(err.Error(), sessionEvictedMsg)
}

// memReplica is a replica without a journal, wired as ListenAndServe wires
// one, without a listener.
func memReplica(t *testing.T) *TCPServer {
	t.Helper()
	s := NewServer(NewRegistry(durableSplit(t)))
	return &TCPServer{Server: s, dedup: &Dedup{Inner: &Local{Server: s}}}
}

// TestDedupOneWayRoundTripAllocatesNothing pins the served path's slot:
// claiming and releasing a session's in-flight slot allocates nothing
// while no request waits on it, so a steady-state one-way call over Local
// costs no allocation in the dedup layer.
func TestDedupOneWayRoundTripAllocatesNothing(t *testing.T) {
	d := memReplica(t).dedup
	inst := mustRoundTrip(t, d, Request{Op: OpEnter, Session: 7, Seq: 1, Fn: bumpFn, Obj: 1}).Inst
	req := bumpCall(7, 1, inst, bumpSetT, interp.IntV(4))
	req.Flags |= ReqNoReply
	allocs := testing.AllocsPerRun(200, func() {
		req.Seq++
		d.RoundTrip(req)
	})
	if allocs != 0 {
		t.Errorf("a one-way Dedup.RoundTrip allocates %v times, want 0", allocs)
	}
	if got := d.HighWater(7); got != req.Seq {
		t.Fatalf("high-water mark %d after seq %d", got, req.Seq)
	}
}

// TestDedupWaiterRereadsDroppedEntry: a landing parked behind a fresh
// session's in-flight holder must land into the session's entry as it is
// when the holder lets go, not the one it waited on. A holder whose
// landing failed drops the entry it left empty; settling into that
// detached entry lost the landing (HighWater read 0) and bounced the
// session's next live request as evicted.
func TestDedupWaiterRereadsDroppedEntry(t *testing.T) {
	const session = 61
	var inst int64
	records := originJournal(t, func(dd *Dedup) {
		inst = mustRoundTrip(t, dd, Request{Op: OpEnter, Session: session, Seq: 1, Fn: bumpFn, Obj: 1}).Inst
	})
	ts := memReplica(t)
	sh, e, _ := ts.dedup.entry(session)
	e.busy = true // a landing of the fresh session holds the slot
	sh.mu.Unlock()

	landed := make(chan error, 1)
	go func() { landed <- ts.ApplyReplicated(records[0]) }()
	for parked := false; !parked; {
		select {
		case err := <-landed:
			t.Fatalf("the landing returned %v past a held slot", err)
		default:
		}
		runtime.Gosched()
		sh.mu.Lock()
		parked = e.wait != nil
		sh.mu.Unlock()
	}
	sh.release(session, e, 1, false, nil) // the holder failed: nothing settles
	if err := <-landed; err != nil {
		t.Fatal(err)
	}
	if got := ts.dedup.HighWater(session); got != 1 {
		t.Fatalf("high-water mark %d after the parked landing, want 1", got)
	}
	resp, err := ts.roundTrip(bumpCall(session, 2, inst, bumpSetT, interp.IntV(4)))
	if err != nil || resp.Err != "" {
		t.Fatalf("the session's next live request: %+v, %v", resp, err)
	}
}

// TestDedupSlotLiveAndReplicatedContend: live requests and replicated
// landings of one session contend for its slot from several goroutines,
// each walking the session's requests in order, as mesh peers echo a
// stream while the promoted client retries it. Each walker yields after
// every step, so the walkers keep meeting at the frontier and a run parks
// on the busy slot about a hundred times. Every seq lands exactly once
// and in order: the tallies match the origin's, the order-sensitive
// hidden global ends where the origin's did, and no live answer differs
// from the origin's.
func TestDedupSlotLiveAndReplicatedContend(t *testing.T) {
	const session, calls, walkers = 71, 200, 3
	var reqs []Request
	var want []Response
	records := originJournal(t, func(dd *Dedup) {
		inst := mustRoundTrip(t, dd, Request{Op: OpEnter, Session: session, Seq: 1, Fn: bumpFn, Obj: 1}).Inst
		for seq := uint64(2); seq < calls+2; seq++ {
			req := bumpCall(session, seq, inst, bumpCounter)
			if seq%2 == 0 {
				req = bumpCall(session, seq, inst, bumpSetT, interp.IntV(int64(seq)))
			}
			reqs = append(reqs, req)
			want = append(want, mustRoundTrip(t, dd, req))
		}
	})
	ts := memReplica(t)
	if err := ts.ApplyReplicated(records[0]); err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	errs := make(chan error, 2*walkers)
	var wg sync.WaitGroup
	for w := 0; w < walkers; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			for _, rec := range records[1:] {
				if err := ts.ApplyReplicated(rec); err != nil {
					errs <- err
					return
				}
				runtime.Gosched()
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			for i, req := range reqs {
				resp, err := ts.roundTrip(req)
				for err == nil && resp.Flags&RespResend != 0 {
					runtime.Gosched() // an earlier seq has not landed yet
					resp, err = ts.roundTrip(req)
				}
				switch {
				case err != nil:
				case resp.Err == "" && resp != want[i]:
					err = fmt.Errorf("seq %d answered %+v, want %+v", req.Seq, resp, want[i])
				case resp.Err != "" && !strings.Contains(resp.Err, "stale request"):
					err = fmt.Errorf("seq %d: %s", req.Seq, resp.Err)
				}
				if err != nil {
					errs <- err
					return
				}
				runtime.Gosched()
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := ts.dedup.HighWater(session); got != calls+1 {
		t.Errorf("high-water mark %d, want %d", got, calls+1)
	}
	if st := ts.Server.Stats(); st.Enters != 1 || st.Calls != calls {
		t.Errorf("tallies %+v, want 1 enter and %d calls", st, calls)
	}
	origin := memReplica(t)
	for _, rec := range records {
		if err := origin.ApplyReplicated(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := globalCounter(t, ts.Server), globalCounter(t, origin.Server); got != want {
		t.Errorf("hidden counter %v, want %v", got, want)
	}
}
