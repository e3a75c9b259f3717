package hrt

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"slicehide/internal/core"
	"slicehide/internal/interp"
)

// stressSrc isolates one hidden variable behind an init fragment (a = x)
// and a fetch fragment (return a), so a worker can write a value it alone
// knows and read it back: any cross-session bleed or lost/duplicated
// execution shows up as a wrong fetch. The open statement between the two
// hidden ones keeps batching from merging the init fragment with the next,
// so the split is the program that wrote testdata/pr11_datadir.
const stressSrc = `
func f(x: int): int {
    var a: int = x;
    var b: int = x;
    a = a + 100;
    return a;
}
func main() { print(f(1)); }
`

// stressFrags locates the init (first exec) and fetch fragments of the
// stress split.
func stressFrags(t *testing.T, res *core.Result) (initFrag, fetchFrag int) {
	t.Helper()
	comp := res.Splits["f"].Hidden
	initFrag, fetchFrag = -1, -1
	for _, id := range comp.FragIDs() {
		fr := comp.Frags[id]
		if fr.Kind == core.FragExec && initFrag < 0 {
			initFrag = id
		}
		if fr.Kind == core.FragFetch {
			fetchFrag = id
		}
	}
	if initFrag < 0 || fetchFrag < 0 {
		t.Fatalf("fragments not found:\n%s", comp)
	}
	return initFrag, fetchFrag
}

// stressValue is the per-(worker, round, call) token written into the
// hidden variable; unique across the whole run.
func stressValue(w, r, c int) int64 {
	return int64(w)*1_000_000 + int64(r)*1_000 + int64(c)
}

// TestConcurrentSessionsStress runs 8 concurrent sessions — half driving
// their stream synchronously, half one-way — against
// a single sharded TCPServer, each interleaving Enter/Call/Exit rounds.
// Every worker checks its fetches byte-for-byte against the transcript a
// faultless serial execution would produce, and the run ends with an
// exact ServerStats accounting: under the race detector this is the
// end-to-end proof that sharded session state keeps sessions isolated
// and exactly-once. Run via `make race` / the CI race job.
func TestConcurrentSessionsStress(t *testing.T) {
	res := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	initFrag, fetchFrag := stressFrags(t, res)

	ts := &TCPServer{
		Server: NewServer(NewRegistry(res)),
		Shards: runtime.GOMAXPROCS(0),
	}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	const workers = 8
	rounds, calls := 6, 25
	if testing.Short() {
		rounds, calls = 3, 10
	}

	// runRounds drives one worker's full interleaved lifecycle over any
	// enter/call/exit implementation and returns its fetch transcript.
	type sessionOps struct {
		enter func() (int64, error)
		call  func(inst int64, frag int, args []interp.Value) (interp.Value, error)
		exit  func(inst int64) error
		sync  func() error // end-of-round barrier (nil for sync transport)
	}
	runRounds := func(w int, ops sessionOps) (string, error) {
		var got []byte
		for r := 0; r < rounds; r++ {
			inst, err := ops.enter()
			if err != nil {
				return "", fmt.Errorf("worker %d round %d enter: %w", w, r, err)
			}
			for c := 0; c < calls; c++ {
				v := stressValue(w, r, c)
				if _, err := ops.call(inst, initFrag, []interp.Value{interp.IntV(v)}); err != nil {
					return "", fmt.Errorf("worker %d round %d init call: %w", w, r, err)
				}
				fetched, err := ops.call(inst, fetchFrag, nil)
				if err != nil {
					return "", fmt.Errorf("worker %d round %d fetch: %w", w, r, err)
				}
				got = fmt.Appendf(got, "%d ", fetched.I)
			}
			if err := ops.exit(inst); err != nil {
				return "", fmt.Errorf("worker %d round %d exit: %w", w, r, err)
			}
			if ops.sync != nil {
				if err := ops.sync(); err != nil {
					return "", fmt.Errorf("worker %d round %d barrier: %w", w, r, err)
				}
			}
		}
		return string(got), nil
	}

	var wg sync.WaitGroup
	errs := make([]error, workers)
	transcripts := make([]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mt, err := DialMux(MuxConfig{Addr: addr.String()})
			if err != nil {
				errs[w] = err
				return
			}
			defer mt.Close()
			tr := mt.Stream(0, nil)
			if w%2 == 0 {
				// Synchronous: every operation is a blocking round trip.
				sess := &Session{T: tr}
				transcripts[w], errs[w] = runRounds(w, sessionOps{
					enter: func() (int64, error) { return sess.Enter("f", 0) },
					call: func(inst int64, frag int, args []interp.Value) (interp.Value, error) {
						return sess.Call("f", inst, frag, args)
					},
					exit: func(inst int64) error { return sess.Exit("f", inst) },
				})
				return
			}
			// Pipelined: init calls go one-way, fetches are reply-bearing
			// (ordered behind the one-way window), the exit is one-way with
			// a flush barrier closing each round.
			as := NewAsyncSession(tr)
			transcripts[w], errs[w] = runRounds(w, sessionOps{
				enter: func() (int64, error) { return as.EnterAsync("f", 0) },
				call: func(inst int64, frag int, args []interp.Value) (interp.Value, error) {
					if frag == initFrag {
						return interp.NullV(), as.CallOneWay("f", inst, frag, args)
					}
					return as.Call("f", inst, frag, args)
				},
				exit: func(inst int64) error { return as.ExitAsync("f", inst) },
				sync: as.Barrier,
			})
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	// Byte-identical per-session outputs: each worker's fetch transcript
	// must match the serial-execution expectation exactly.
	for w := 0; w < workers; w++ {
		var want []byte
		for r := 0; r < rounds; r++ {
			for c := 0; c < calls; c++ {
				want = fmt.Appendf(want, "%d ", stressValue(w, r, c))
			}
		}
		if transcripts[w] != string(want) {
			t.Errorf("worker %d transcript diverged:\n got %q\nwant %q", w, transcripts[w], want)
		}
	}

	// Exact accounting: every Enter/Call/Exit executed exactly once. The
	// loopback link is faultless, so retries cannot inflate the counts —
	// and dedup would swallow them if they happened.
	stats := ts.Server.Stats()
	wantEnters := int64(workers * rounds)
	wantCalls := int64(workers * rounds * calls * 2)
	if stats.Enters != wantEnters || stats.Exits != wantEnters || stats.Calls != wantCalls {
		t.Errorf("stats = {enters %d, exits %d, calls %d}, want {%d, %d, %d}",
			stats.Enters, stats.Exits, stats.Calls, wantEnters, wantEnters, wantCalls)
	}
	if got := ts.Server.ActiveInstances(); got != 0 {
		t.Errorf("leaked activations: %d", got)
	}
}

// colliding returns n distinct session ids (beyond base) that land on the
// same stripe as base, so eviction tests can force pressure onto one
// stripe of a sharded cache.
func colliding(d *Dedup, base uint64, n int) []uint64 {
	d.lazyInit()
	target := d.shard(base)
	var out []uint64
	for s := base + 1; len(out) < n; s++ {
		if d.shard(s) == target {
			out = append(out, s)
		}
	}
	return out
}

// TestDedupShardedEvictionReplayBounces re-runs the PR 3 eviction
// regression against a sharded cache: eviction is per-stripe now, so the
// pressure sessions must collide on the victim's stripe, and the bounce
// fence must still refuse the post-eviction retry with the distinct
// session-evicted error instead of re-executing.
func TestDedupShardedEvictionReplayBounces(t *testing.T) {
	rec := &execRecorder{}
	d := &Dedup{Inner: rec, MaxSessions: 4, Shards: 4}
	const victim = uint64(1)

	for seq := uint64(1); seq <= 2; seq++ {
		if _, err := d.RoundTrip(Request{Op: OpCall, Session: victim, Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	// Stripe-mates push the victim out (per-stripe cap is 4/4 = 1).
	for _, s := range colliding(d, victim, 2) {
		if _, err := d.RoundTrip(Request{Op: OpCall, Session: s, Seq: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if d.Evictions.Load() == 0 {
		t.Fatal("setup failed: no eviction on the victim's stripe")
	}

	resp, err := d.RoundTrip(Request{Op: OpCall, Session: victim, Seq: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.count(victim, 2); got != 1 {
		t.Errorf("request 1/2 executed %d times, want exactly once", got)
	}
	if !IsSessionEvicted(errors.New(resp.Err)) {
		t.Errorf("retry after eviction answered %q, want the session-evicted error", resp.Err)
	}
	if d.Bounces.Load() == 0 {
		t.Error("bounce not counted")
	}
}

// TestDedupShardedEvictGrace drives the grace fence on a sharded cache
// with a stubbed clock: stripe-mates within EvictGrace are spared (the
// stripe runs over its share of the cap) and become evictable once the
// window expires.
func TestDedupShardedEvictGrace(t *testing.T) {
	now := time.Unix(1000, 0)
	d := &Dedup{Inner: &execRecorder{}, MaxSessions: 4, Shards: 4, EvictGrace: time.Minute}
	d.now = func() time.Time { return now }

	const base = uint64(1)
	mates := colliding(d, base, 3)
	for _, s := range append([]uint64{base}, mates...) {
		if _, err := d.RoundTrip(Request{Op: OpCall, Session: s, Seq: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// All four share one stripe (cap 1) but sit within grace: protected.
	if got := d.Sessions(); got != 4 {
		t.Errorf("cache holds %d sessions, want all 4 protected by grace", got)
	}
	if d.Evictions.Load() != 0 {
		t.Errorf("evictions = %d during grace", d.Evictions.Load())
	}

	// Grace expires; the next stripe-mate arrival shrinks the stripe back
	// to its cap plus the protected newcomer.
	now = now.Add(2 * time.Minute)
	extra := colliding(d, base, 4)[3]
	if _, err := d.RoundTrip(Request{Op: OpCall, Session: extra, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if got := d.Sessions(); got > 1 {
		t.Errorf("stripe holds %d sessions after grace expiry, per-stripe cap is 1", got)
	}
	if d.Evictions.Load() == 0 {
		t.Error("no evictions after grace expiry")
	}
}

// TestDedupShardedStripeIsolation: sessions on different stripes never
// evict each other — filling every stripe to its cap causes no evictions,
// even though the same session count on one stripe would.
func TestDedupShardedStripeIsolation(t *testing.T) {
	rec := &execRecorder{}
	d := &Dedup{Inner: rec, MaxSessions: 4, Shards: 4}
	d.lazyInit()

	// One session per stripe.
	seen := make(map[*dedupShard]uint64)
	for s := uint64(1); len(seen) < 4; s++ {
		sh := d.shard(s)
		if _, ok := seen[sh]; ok {
			continue
		}
		seen[sh] = s
		if _, err := d.RoundTrip(Request{Op: OpCall, Session: s, Seq: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if d.Evictions.Load() != 0 {
		t.Errorf("evictions = %d with every stripe exactly at cap", d.Evictions.Load())
	}
	if got := d.Sessions(); got != 4 {
		t.Errorf("Sessions() = %d, want 4", got)
	}
	// Each survivor still replays from cache: seq 1 again is a replay,
	// not a re-execution.
	for _, s := range seen {
		if _, err := d.RoundTrip(Request{Op: OpCall, Session: s, Seq: 1}); err != nil {
			t.Fatal(err)
		}
		if got := rec.count(s, 1); got != 1 {
			t.Errorf("session %d seq 1 executed %d times, want exactly once", s, got)
		}
	}
}
