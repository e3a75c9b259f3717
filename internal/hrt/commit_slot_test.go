package hrt

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"slicehide/internal/core"
	"slicehide/internal/interp"
	"slicehide/internal/obs"
	"slicehide/internal/wal"
)

// The dedup layer journals — and waits for the fsync — holding only the
// session's in-flight slot, never the stripe lock. These tests pin what
// that buys (same-stripe sessions share one fsync) and what it must not
// cost (exactly-once, HighWater ≤ journaled seq, crash recovery). Every
// Dedup here has a single stripe, so "another session" always means
// "another session of the same stripe".

// holdNextSync makes p's next group-commit batch block after its write
// and fsync, before its workers are released, until the returned release
// runs; held is closed once the committer is inside the hold.
func holdNextSync(t *testing.T, p *Durability) (held <-chan struct{}, release func()) {
	t.Helper()
	entered := make(chan struct{})
	gate := make(chan struct{})
	var enterOnce, releaseOnce sync.Once
	release = func() { releaseOnce.Do(func() { close(gate) }) }
	// A t.Fatal must still let crash stop the committer, which is stuck
	// inside the held fsync: callers register crash with t.Cleanup before
	// calling here, so this release runs first.
	t.Cleanup(release)
	p.onCommit(func() error {
		enterOnce.Do(func() { close(entered) })
		<-gate
		return nil
	})
	return entered, release
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// within runs fn on its own goroutine and fails the test if it has not
// returned after five seconds — how a call that must not wait for a held
// fsync (or a held stripe lock) is told from one that does.
func within[T any](t *testing.T, what string, fn func() T) T {
	t.Helper()
	got := make(chan T, 1)
	go func() { got <- fn() }()
	select {
	case v := <-got:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("%s blocked", what)
		panic("unreachable")
	}
}

// asyncRoundTrip issues req on its own goroutine; the channel delivers
// the response (transport errors are reported with t.Error).
func asyncRoundTrip(t *testing.T, dd *Dedup, req Request) <-chan Response {
	got := make(chan Response, 1)
	go func() {
		resp, err := dd.RoundTrip(req)
		if err != nil {
			t.Errorf("round trip %+v: %v", req, err)
		}
		got <- resp
	}()
	return got
}

// journalSeqs scans a journal file and returns the seqs recorded for
// session, in file order.
func journalSeqs(t *testing.T, path string, session uint64) []uint64 {
	t.Helper()
	var seqs []uint64
	if _, _, err := wal.ScanFile(path, func(payload []byte) error {
		rec, err := decodeRecord(payload)
		if err != nil {
			return err
		}
		if rec.session == session {
			seqs = append(seqs, rec.seq)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return seqs
}

// TestGroupCommitCoalescesSameStripeSessions is the tentpole's referee:
// eight sessions behind ONE stripe call through Dedup.RoundTrip while the
// first batch's fsync is held. All seven others must get their records
// into the commit queue behind it — with the journal under the stripe
// lock only one append fit behind a stripe, and this wait timed out.
func TestGroupCommitCoalescesSameStripeSessions(t *testing.T) {
	dir := t.TempDir()
	res := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	_, dd, p := startDurable(t, res, dir, DurabilityOptions{
		Fsync: true, CommitBytes: 1 << 20, SnapshotEvery: -1,
	})
	t.Cleanup(func() { crash(t, p) })
	dd.lazyInit()
	if len(dd.shards) != 1 {
		t.Fatalf("dedup has %d stripes, want 1", len(dd.shards))
	}
	held, release := holdNextSync(t, p)

	const sessions = 8
	enter := func(i int) <-chan Response {
		return asyncRoundTrip(t, dd, Request{Op: OpEnter, Session: uint64(100 + i), Seq: 1, Fn: "f"})
	}
	replies := []<-chan Response{enter(0)}
	<-held // session 0's batch is inside the held fsync
	for i := 1; i < sessions; i++ {
		replies = append(replies, enter(i))
	}
	waitFor(t, "seven same-stripe records queued behind the held fsync",
		func() bool { return len(p.commitq) == sessions-1 })
	release()
	for i, ch := range replies {
		if resp := <-ch; resp.Err != "" {
			t.Errorf("session %d enter: %s", i, resp.Err)
		}
	}

	batches, records := p.CommitBatchStats()
	if records != sessions {
		t.Errorf("committed records = %d, want %d", records, sessions)
	}
	if batches > 2 {
		t.Errorf("%d records took %d batches, want ≤ 2 (one held, one coalesced)", sessions, batches)
	}
	var scanned int
	if _, _, err := wal.ScanFile(p.journalPath(p.gen), func([]byte) error {
		scanned++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if scanned != sessions {
		t.Errorf("journal scans back %d records, want %d", scanned, sessions)
	}
}

// TestDedupExactlyOnceWhileCommitHeld parks session S's seq 3 inside a
// held fsync and checks everything the slot protocol promises meanwhile:
// HighWater does not run ahead of the journal, a duplicate and the
// successor both wait and then run once each in seq order, and another
// session of the same stripe is served from the replay cache at once.
func TestDedupExactlyOnceWhileCommitHeld(t *testing.T) {
	dir := t.TempDir()
	res := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	initFrag, fetchFrag := stressFrags(t, res)
	server, dd, p := startDurable(t, res, dir, DurabilityOptions{
		Fsync: true, CommitBytes: 1 << 20, SnapshotEvery: -1,
	})
	t.Cleanup(func() { crash(t, p) })

	const S, other = 7, 8
	inst := mustRoundTrip(t, dd, Request{Op: OpEnter, Session: S, Seq: 1, Fn: "f"}).Inst
	mustRoundTrip(t, dd, Request{Op: OpCall, Session: S, Seq: 2, Fn: "f", Inst: inst,
		Frag: initFrag, Args: []interp.Value{interp.IntV(41)}})
	otherEnter := Request{Op: OpEnter, Session: other, Seq: 1, Fn: "f"}
	otherResp := mustRoundTrip(t, dd, otherEnter)
	callsBefore := server.Stats().Calls

	held, release := holdNextSync(t, p)
	seq3 := Request{Op: OpCall, Session: S, Seq: 3, Fn: "f", Inst: inst,
		Frag: initFrag, Args: []interp.Value{interp.IntV(7)}}
	first := asyncRoundTrip(t, dd, seq3)
	<-held // seq 3 executed in memory; its record is written, not yet durable

	if hw := within(t, "HighWater during a held commit", func() uint64 { return dd.HighWater(S) }); hw != 2 {
		t.Errorf("HighWater(S) = %d while seq 3 is not yet durable, want 2", hw)
	}
	// The stripe is free: a replay for another session is answered from
	// the cache without waiting for the fsync.
	replaysBefore := dd.Replays.Load()
	hit := within(t, "replay for another session of the stripe", func() Response {
		resp, err := dd.RoundTrip(otherEnter)
		if err != nil {
			t.Errorf("replay: %v", err)
		}
		return resp
	})
	if hit.Inst != otherResp.Inst || hit.Err != otherResp.Err || dd.Replays.Load() != replaysBefore+1 {
		t.Errorf("replay during held commit %+v (replays %d), want cached %+v", hit, dd.Replays.Load()-replaysBefore, otherResp)
	}

	dup := asyncRoundTrip(t, dd, seq3)
	next := asyncRoundTrip(t, dd, Request{Op: OpCall, Session: S, Seq: 4, Fn: "f", Inst: inst, Frag: fetchFrag})
	// Both must be parked on S's slot. Hand the processor over so that a
	// duplicate or successor that wrongly got through would finish first.
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	select {
	case resp := <-dup:
		t.Fatalf("duplicate of seq 3 answered %+v before seq 3 was durable", resp)
	case resp := <-next:
		t.Fatalf("seq 4 answered %+v before seq 3 was durable", resp)
	default:
	}
	if got := server.Stats().Calls; got != callsBefore+1 {
		t.Errorf("calls while held = %d, want %d (seq 3 only)", got-callsBefore, 1)
	}

	release()
	firstResp, dupResp, nextResp := <-first, <-dup, <-next
	if firstResp.Err != "" {
		t.Errorf("seq 3: %s", firstResp.Err)
	}
	// Only the newest reply is cached: a duplicate overtaken by seq 4 is
	// told it is stale; either way it must not have executed.
	if stale := dupResp.Err != "" && dupResp.Ack == 4; dupResp != firstResp && !stale {
		t.Errorf("duplicate answered %+v, want the original's %+v or the stale verdict", dupResp, firstResp)
	}
	if nextResp.Err != "" || !nextResp.Val.Equal(interp.IntV(7)) {
		t.Errorf("seq 4 fetched %+v, want 7", nextResp)
	}
	if got := server.Stats().Calls; got != callsBefore+2 {
		t.Errorf("seq 3 and 4 executed %d times in total, want 2", got-callsBefore)
	}
	if hw := dd.HighWater(S); hw != 4 {
		t.Errorf("HighWater(S) = %d after both committed, want 4", hw)
	}
	seqs := journalSeqs(t, p.journalPath(p.gen), S)
	if len(seqs) != 4 || seqs[0] != 1 || seqs[1] != 2 || seqs[2] != 3 || seqs[3] != 4 {
		t.Errorf("journal holds session S seqs %v, want [1 2 3 4]", seqs)
	}
}

// TestGroupCommitCrashSameStripeGlobals has two same-stripe sessions write
// one shared hidden global while a commit is held, so both records are
// coalesced into one batch, then loses that batch's tail the way a machine
// dying between the write and the fsync can (any suffix): 0, 1 or 2 of its
// records survive. The recovered global must be the durable write with the
// highest globalsVersion, nothing durable may be missing, and the clients'
// retries must re-execute exactly the lost requests, once.
func TestGroupCommitCrashSameStripeGlobals(t *testing.T) {
	for keep, name := range []string{"both lost", "first survives", "both survive"} {
		keep := keep
		t.Run(name, func(t *testing.T) { crashSameStripeGlobals(t, keep) })
	}
}

func crashSameStripeGlobals(t *testing.T, keep int) {
	const fn = "C.bump"
	const setT, addToCounter = 0, 2 // fragments of C.bump: t = x + 1; counter = counter + t
	const A, B, C = 31, 32, 33
	dir := t.TempDir()
	opts := DurabilityOptions{Fsync: true, CommitBytes: 1 << 20, SnapshotEvery: -1}
	server1, dd1, p1 := startDurable(t, durableSplit(t), dir, opts)

	call := func(session, seq uint64, inst int64, frag int, args ...interp.Value) Request {
		return Request{Op: OpCall, Session: session, Seq: seq, Fn: fn, Inst: inst, Frag: frag, Args: args}
	}
	// Durable prefix: A's t = 5, B's t = 10, and A's first add (counter = 5).
	instA := mustRoundTrip(t, dd1, Request{Op: OpEnter, Session: A, Seq: 1, Fn: fn, Obj: 1}).Inst
	mustRoundTrip(t, dd1, call(A, 2, instA, setT, interp.IntV(4)))
	instB := mustRoundTrip(t, dd1, Request{Op: OpEnter, Session: B, Seq: 1, Fn: fn, Obj: 2}).Inst
	mustRoundTrip(t, dd1, call(B, 2, instB, setT, interp.IntV(9)))
	mustRoundTrip(t, dd1, call(A, 3, instA, addToCounter))

	// Session C's enter takes the held fsync; behind it A's second add
	// (counter = 10) and B's add (counter = 20) execute on the same stripe
	// and queue in that order, to be coalesced into one batch.
	held, release := holdNextSync(t, p1)
	enterC := asyncRoundTrip(t, dd1, Request{Op: OpEnter, Session: C, Seq: 1, Fn: fn, Obj: 3})
	<-held
	addA := call(A, 4, instA, addToCounter)
	addB := call(B, 3, instB, addToCounter)
	ackA := asyncRoundTrip(t, dd1, addA)
	waitFor(t, "A's add queued behind the held fsync", func() bool { return len(p1.commitq) == 1 })
	ackB := asyncRoundTrip(t, dd1, addB)
	waitFor(t, "B's add queued on the same stripe", func() bool { return len(p1.commitq) == 2 })
	release()
	<-enterC
	<-ackA
	<-ackB
	if batches, _ := p1.CommitBatchStats(); batches != 7 {
		t.Fatalf("%d batches, want 7 (five serial, C's, and one coalescing both adds)", batches)
	}
	liveCalls := server1.Stats().Calls
	journalFile := p1.journalPath(p1.gen)
	crash(t, p1)
	// The last batch never reached the platter whole.
	const durableRecords = 6 // the prefix and C's enter
	cut, err := truncatedPrefix(journalFile, int64(durableRecords+keep))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(journalFile, cut); err != nil {
		t.Fatal(err)
	}

	server2, dd2, p2 := startDurable(t, durableSplit(t), dir, opts)
	defer crash(t, p2)
	if got := p2.Recovered().Records; got != int64(durableRecords+keep) {
		t.Fatalf("recovered %d records, want %d", got, durableRecords+keep)
	}
	counter := func(s *Server) interp.Value {
		slot, ok := s.reg.Prog.Globals.SlotByName("counter")
		if !ok {
			t.Fatal("no hidden global counter")
		}
		s.globalsMu.Lock()
		defer s.globalsMu.Unlock()
		return s.globals.vals[slot]
	}
	// The write with the highest durable globalsVersion: A's first add,
	// A's second, or B's.
	if want := interp.IntV([]int64{5, 10, 20}[keep]); !counter(server2).Equal(want) {
		t.Errorf("recovered counter = %v, want %v", counter(server2), want)
	}
	lost := int64(2 - keep)
	if got := server2.Stats().Calls; got != liveCalls-lost {
		t.Errorf("recovered calls = %d, want %d (every durable call, nothing else)", got, liveCalls-lost)
	}
	if hw, want := dd2.HighWater(A), []uint64{3, 4, 4}[keep]; hw != want {
		t.Errorf("recovered HighWater(A) = %d, want %d", hw, want)
	}
	if hw, want := dd2.HighWater(B), []uint64{2, 2, 3}[keep]; hw != want {
		t.Errorf("recovered HighWater(B) = %d, want %d", hw, want)
	}

	// Both clients retry; twice, as a client with a flaky link would.
	for i := 0; i < 2; i++ {
		if resp := mustRoundTrip(t, dd2, addA); resp.Err != "" {
			t.Errorf("retry of A's add: %s", resp.Err)
		}
		if resp := mustRoundTrip(t, dd2, addB); resp.Err != "" {
			t.Errorf("retry of B's add: %s", resp.Err)
		}
	}
	if got := server2.Stats().Calls; got != liveCalls {
		t.Errorf("after retries calls = %d, want %d (each lost request re-executed once)", got, liveCalls)
	}
	if want := interp.IntV(20); !counter(server2).Equal(want) {
		t.Errorf("counter after retries = %v, want %v", counter(server2), want)
	}
}

// lockProbeSink is a trace sink that takes every stripe lock of a Dedup
// on each event, as an operator-supplied sink reading dedup gauges might.
type lockProbeSink struct{ d *Dedup }

func (s lockProbeSink) Write(b []byte) (int, error) {
	s.d.Sessions()
	return len(b), nil
}

// TestDedupTraceSinksRunOutsideStripeLock emits dedup_evict and
// dedup_replay into a sink that needs the stripe lock itself; emitting
// under the lock would self-deadlock.
func TestDedupTraceSinksRunOutsideStripeLock(t *testing.T) {
	res := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	dd := &Dedup{Inner: &Local{Server: NewServer(NewRegistry(res))}, MaxSessions: 1}
	dd.Tracer = obs.NewTracer(obs.TracerConfig{Output: lockProbeSink{dd}})
	within(t, "tracing a replay and an eviction", func() bool {
		first := Request{Op: OpEnter, Session: 1, Seq: 1, Fn: "f"}
		second := Request{Op: OpEnter, Session: 2, Seq: 1, Fn: "f"} // evicts session 1
		for _, req := range []Request{first, first, second} {
			if resp, err := dd.RoundTrip(req); err != nil || resp.Err != "" {
				t.Errorf("round trip %+v: %+v %v", req, resp, err)
			}
		}
		return true
	})
	if dd.Replays.Load() != 1 || dd.Evictions.Load() != 1 {
		t.Errorf("replays=%d evictions=%d, want 1 and 1", dd.Replays.Load(), dd.Evictions.Load())
	}
	var kinds []string
	for _, ev := range dd.Tracer.Events() {
		kinds = append(kinds, ev.Kind)
	}
	if len(kinds) != 2 || kinds[0] != "dedup_replay" || kinds[1] != "dedup_evict" {
		t.Errorf("traced %v, want [dedup_replay dedup_evict]", kinds)
	}
}

// TestRecoverParentWrittenDataDir recovers a data directory written by
// the commit before journaling moved out of the stripe lock (snapshot
// generation 1 plus a two-journal chain, group commit + fsync): the
// journal record, snapshot and file formats are unchanged, so every
// session resumes.
func TestRecoverParentWrittenDataDir(t *testing.T) {
	dir := copyParentWrittenDataDir(t)
	res := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	if h := NewRegistry(res).Prog.Hash; h != parentWrittenHash {
		t.Fatalf("stress split compiles to %#016x, the fixture was written by %#016x", h, uint64(parentWrittenHash))
	}
	_, fetchFrag := stressFrags(t, res)
	server, dd, p := startDurable(t, res, dir, DurabilityOptions{Fsync: true, CommitBytes: 1 << 20, SnapshotEvery: -1})
	defer crash(t, p)
	rec := p.Recovered()
	if !rec.SnapshotUsed || rec.Generation != 1 || rec.Records != 3 || rec.Sessions != 2 {
		t.Errorf("recovered %+v, want snapshot generation 1, 3 records, 2 sessions", rec)
	}
	if got := (ServerStats{Enters: 2, Calls: 3}); server.Stats() != got {
		t.Errorf("recovered stats %+v, want %+v", server.Stats(), got)
	}
	// Session 21's journaled fetch (seq 4) replays from the cache; its
	// next request sees the one-way write journaled before it.
	fetch := Request{Op: OpCall, Session: 21, Seq: 4, Fn: "f", Inst: 1, Frag: fetchFrag}
	if resp := mustRoundTrip(t, dd, fetch); resp.Err != "" || !resp.Val.Equal(interp.IntV(58)) {
		t.Errorf("replayed fetch %+v, want 58", resp)
	}
	fetch.Seq = 5
	if resp := mustRoundTrip(t, dd, fetch); resp.Err != "" || !resp.Val.Equal(interp.IntV(58)) {
		t.Errorf("fresh fetch %+v, want 58", resp)
	}
	if got := server.Stats().Calls; got != 4 {
		t.Errorf("calls = %d, want 4 (the replay did not execute)", got)
	}
	if hw := dd.HighWater(22); hw != 1 {
		t.Errorf("HighWater(22) = %d, want 1", hw)
	}
}

// parentWrittenHash is Program.Hash of the split that wrote the
// pr11_datadir fixture: stressSrc's split, whose open statement keeps its
// two hidden statements from batching.
const parentWrittenHash = 0xdf648bd44d9d1263

// TestParentWrittenDataDirRefusesBatchedProgram recovers the fixture under
// the stress source without its open statement. Batching merges that
// source's two hidden statements into one fragment, so its program is not
// the one that wrote the data dir, and recovery must refuse it rather than
// replay records against the wrong fragments.
func TestParentWrittenDataDirRefusesBatchedProgram(t *testing.T) {
	dir := copyParentWrittenDataDir(t)
	res := split(t, `
func f(x: int): int {
    var a: int = x;
    a = a + 100;
    return a;
}
func main() { print(f(1)); }
`, core.Spec{Func: "f", Seed: "a"})
	if h := NewRegistry(res).Prog.Hash; h == parentWrittenHash {
		t.Fatalf("the batched source compiles to the fixture's program %#016x", h)
	}
	server := NewServer(NewRegistry(res))
	p := NewDurability(DurabilityOptions{Dir: dir, Fsync: true, CommitBytes: 1 << 20, SnapshotEvery: -1})
	err := p.start(server, &Dedup{Inner: &Local{Server: server}})
	if err == nil {
		crash(t, p)
		t.Fatal("recovered the fixture under a different program")
	}
	if !strings.Contains(err.Error(), "program changed") {
		t.Errorf("recovery error %q, want a program-changed refusal", err)
	}
}

// copyParentWrittenDataDir copies the committed pr11_datadir fixture (plain
// append-only v1 journals, no zero fill) into a fresh directory.
func copyParentWrittenDataDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	fixtures, err := filepath.Glob("testdata/pr11_datadir/*")
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no fixture files: %v", err)
	}
	for _, src := range fixtures {
		in, err := os.Open(src)
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dir, filepath.Base(src)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
		in.Close()
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestParentWrittenDataDirTakesZeroFilledAppends carries a v1 data
// directory into the zero-filled layout and back: recover it under Fsync
// (the tip journal is truncated at its prefix and filled ahead), append,
// die without sealing, recover again over records + zero fill, append,
// and shut down cleanly — after which every journal file is once more
// exactly as long as its log, which is all a v1 reader ever expected.
func TestParentWrittenDataDirTakesZeroFilledAppends(t *testing.T) {
	dir := copyParentWrittenDataDir(t)
	opts := DurabilityOptions{Fsync: true, CommitBytes: 1 << 20, SnapshotEvery: -1}
	res := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	if h := NewRegistry(res).Prog.Hash; h != parentWrittenHash {
		t.Fatalf("stress split compiles to %#016x, the fixture was written by %#016x", h, uint64(parentWrittenHash))
	}
	initFrag, fetchFrag := stressFrags(t, res)

	_, dd1, p1 := startDurable(t, res, dir, opts)
	mustRoundTrip(t, dd1, Request{Op: OpCall, Session: 21, Seq: 5, Fn: "f", Inst: 1,
		Frag: initFrag, Args: []interp.Value{interp.IntV(73)}})
	tip := p1.journalPath(p1.gen)
	logEnd := p1.wlog.Size()
	crash(t, p1)
	if info, err := os.Stat(tip); err != nil || info.Size() <= logEnd {
		t.Fatalf("killed journal is %d bytes (%v), want zero fill beyond its log end %d", info.Size(), err, logEnd)
	}

	server2, dd2, p2 := startDurable(t, split(t, stressSrc, core.Spec{Func: "f", Seed: "a"}), dir, opts)
	if rec := p2.Recovered(); rec.Generation != 1 || rec.Records != 4 || rec.Sessions != 2 {
		t.Errorf("second recovery %+v, want generation 1, the fixture's 3 records + 1, 2 sessions", rec)
	}
	fetch := Request{Op: OpCall, Session: 21, Seq: 6, Fn: "f", Inst: 1, Frag: fetchFrag}
	if resp := mustRoundTrip(t, dd2, fetch); resp.Err != "" || !resp.Val.Equal(interp.IntV(73)) {
		t.Errorf("fetch after second recovery %+v, want 73", resp)
	}
	liveStats := server2.Stats()
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	journals, err := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if err != nil || len(journals) == 0 {
		t.Fatalf("no journals after close: %v", err)
	}
	for _, path := range journals {
		validLen, _, err := wal.ScanFile(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if info, err := os.Stat(path); err != nil || info.Size() != validLen {
			t.Errorf("%s is %d bytes after a clean close (%v), want its log end %d", filepath.Base(path), info.Size(), err, validLen)
		}
	}

	server3, _, p3 := startDurable(t, split(t, stressSrc, core.Spec{Func: "f", Seed: "a"}), dir, opts)
	defer crash(t, p3)
	if rec := p3.Recovered(); !rec.SnapshotUsed || rec.Records != 0 {
		t.Errorf("recovery after clean close %+v, want the final snapshot and no replay", rec)
	}
	if got := server3.Stats(); got != liveStats {
		t.Errorf("stats after clean close %+v, want %+v", got, liveStats)
	}
}

// truncatedPrefix returns the byte length of the header and the first n
// records of the journal at path: ScanFile stops before the record its
// callback refuses.
func truncatedPrefix(path string, n int64) (int64, error) {
	stop := errors.New("stop")
	var kept int64
	validLen, _, err := wal.ScanFile(path, func([]byte) error {
		if kept == n {
			return stop
		}
		kept++
		return nil
	})
	if err == stop {
		err = nil
	}
	return validLen, err
}
