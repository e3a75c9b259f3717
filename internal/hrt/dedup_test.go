package hrt

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
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
