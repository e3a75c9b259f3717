package hrt

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"slicehide/internal/core"
	"slicehide/internal/interp"
	"slicehide/internal/ir"
	"slicehide/internal/obs"
	"slicehide/internal/slicer"
	"slicehide/internal/vm"
)

// durableSrc engages both hiding extensions — a hidden global and hidden
// object fields — so restart recovery has every store kind to rebuild. The
// open statements on n keep batching from merging the three hidden
// statements, so tests can drive each as its own fragment (0: t = x + 1,
// 1: v = v + t, 2: counter = counter + t).
const durableSrc = `
var counter: int = 0;
class C {
    field v: int;
    method bump(x: int) {
        var t: int = x + 1;
        var n: int = x;
        v = v + t;
        n = n + 1;
        counter = counter + t;
    }
}
func main() {
    var c: C = new C();
    var d: C = new C();
    c.bump(5);
    d.bump(7);
    c.bump(2);
    print(c.v);
    print(d.v);
    print(counter);
}
`

// durableSplit recompiles durableSrc from source, the way a restarted
// hiddend process would: recovery must resolve journaled names against a
// fresh Registry whose *ir.Var pointers share nothing with the old one.
func durableSplit(t *testing.T) *core.Result {
	t.Helper()
	prog, err := ir.Compile(durableSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SplitProgram(prog,
		[]core.Spec{{Func: "C.bump", Seed: "t"}},
		slicer.Policy{HideFields: true, HideGlobals: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// startDurable builds a fresh server + dedup pair recovered from dir, the
// in-process equivalent of restarting hiddend -data-dir.
func startDurable(t *testing.T, res *core.Result, dir string, opts DurabilityOptions) (*Server, *Dedup, *Durability) {
	t.Helper()
	opts.Dir = dir
	server := NewServer(NewRegistry(res))
	dd := &Dedup{Inner: &Local{Server: server}}
	p := NewDurability(opts)
	if err := p.start(server, dd); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	dd.Persist = p
	return server, dd, p
}

// crash abandons a durability layer without the final snapshot Close would
// write and without sealing the journal, so the next boot must recover
// from what SIGKILL leaves: under Fsync, records followed by zero fill.
// The journal's handle is dropped unclosed, as a killed process drops it
// (its file closes when collected); appends through p fail from here on.
func crash(t *testing.T, p *Durability) {
	t.Helper()
	p.stopCommitter()
	p.mu.Lock()
	p.wlog = nil
	p.mu.Unlock()
}

// writeJournalAt plants raw bytes in the journal file at path, building
// the on-disk state a crash would leave.
func writeJournalAt(t *testing.T, path string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// zeroJournalFrom overwrites the journal at path with zeros from off to
// its end: what a machine crash makes of records written into the filled
// region but never flushed (the zeros under them were durable).
func zeroJournalFrom(t *testing.T, path string, off int64) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	writeJournalAt(t, path, off, make([]byte, max(info.Size()-off, 0)))
}

func mustRoundTrip(t *testing.T, dd *Dedup, req Request) Response {
	t.Helper()
	resp, err := dd.RoundTrip(req)
	if err != nil {
		t.Fatalf("round trip %+v: %v", req, err)
	}
	return resp
}

// TestDirectAppendCountsInJournalOrder pins the commit gate's target on
// the per-append path (no fsync, so no committer orders the counts). A
// record written but not yet counted must not leave the position below a
// record written after it: the later record's own gate would read that
// position, and followers that acknowledge in order would release its
// reply once they held the earlier record only. The seam stalls the first
// append between its write and its count while a second one lands; the
// journal reopened over a recovered record checks the count starts from
// what the generation already held.
func TestDirectAppendCountsInJournalOrder(t *testing.T) {
	dir := t.TempDir()
	res := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	_, dd1, p1 := startDurable(t, res, dir, DurabilityOptions{SnapshotEvery: -1})
	mustRoundTrip(t, dd1, Request{Op: OpEnter, Session: 7, Seq: 1, Fn: "f"})
	crash(t, p1)
	_, _, p := startDurable(t, res, dir, DurabilityOptions{SnapshotEvery: -1})
	defer crash(t, p)

	stalled, release := make(chan struct{}), make(chan struct{})
	first := true
	p.testHookAppended = func() {
		if first {
			first = false
			close(stalled)
			<-release
		}
	}
	firstDone := make(chan error, 1)
	go func() { firstDone <- p.append([]byte("written first, counted last"), true) }()
	<-stalled
	if err := p.append([]byte("written second"), true); err != nil {
		t.Fatal(err)
	}
	_, got := p.CurrentPosition()
	close(release)
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("after the journal's third record landed its appender reads position %d, want 3: its gate would wait for less than its own record", got)
	}
	if _, n := p.CurrentPosition(); n != 3 {
		t.Errorf("position %d once both appends counted, want 3", n)
	}
}

// TestDurableJournalReplayResumesSession kills a durable server (no final
// snapshot) mid-session and restarts it against a freshly recompiled
// program: the activation must survive with its hidden value, a retried
// seq must be answered from the recovered replay cache without
// re-executing, and the execution tallies must carry over exactly.
func TestDurableJournalReplayResumesSession(t *testing.T) {
	dir := t.TempDir()
	res := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	initFrag, fetchFrag := stressFrags(t, res)

	server1, dd1, p1 := startDurable(t, res, dir, DurabilityOptions{})
	resp := mustRoundTrip(t, dd1, Request{Op: OpEnter, Session: 7, Seq: 1, Fn: "f"})
	if resp.Err != "" {
		t.Fatalf("enter: %s", resp.Err)
	}
	inst := resp.Inst
	mustRoundTrip(t, dd1, Request{Op: OpCall, Session: 7, Seq: 2, Fn: "f", Inst: inst,
		Frag: initFrag, Args: []interp.Value{interp.IntV(41)}})
	fetched := mustRoundTrip(t, dd1, Request{Op: OpCall, Session: 7, Seq: 3, Fn: "f", Inst: inst, Frag: fetchFrag})
	if fetched.Err != "" {
		t.Fatalf("fetch: %s", fetched.Err)
	}
	liveStats := server1.Stats()
	crash(t, p1)

	res2 := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	server2, dd2, p2 := startDurable(t, res2, dir, DurabilityOptions{})
	rec := p2.Recovered()
	if rec.SnapshotUsed {
		t.Error("first-generation recovery must not report a snapshot")
	}
	if rec.Records != 3 || rec.Sessions != 1 {
		t.Errorf("recovered records=%d sessions=%d, want 3 and 1", rec.Records, rec.Sessions)
	}
	if got := server2.Stats(); got != liveStats {
		t.Errorf("recovered stats %+v, want %+v", got, liveStats)
	}
	if server2.ActiveInstances() != 1 {
		t.Errorf("recovered activations: %d, want 1", server2.ActiveInstances())
	}

	// The client's retry of the request whose response the crash may have
	// swallowed: answered from the recovered cache, byte-identical, no
	// re-execution.
	retried := mustRoundTrip(t, dd2, Request{Op: OpCall, Session: 7, Seq: 3, Fn: "f", Inst: inst, Frag: fetchFrag})
	if !retried.Val.Equal(fetched.Val) || retried.Err != fetched.Err {
		t.Errorf("replayed response %+v, want %+v", retried, fetched)
	}
	if got := server2.Stats().Calls; got != liveStats.Calls {
		t.Errorf("retry re-executed: calls %d, want %d", got, liveStats.Calls)
	}

	// The session continues: a fresh fetch sees the pre-crash hidden value.
	again := mustRoundTrip(t, dd2, Request{Op: OpCall, Session: 7, Seq: 4, Fn: "f", Inst: inst, Frag: fetchFrag})
	if again.Err != "" || !again.Val.Equal(fetched.Val) {
		t.Errorf("post-recovery fetch %+v, want value %v", again, fetched.Val)
	}
	if resp := mustRoundTrip(t, dd2, Request{Op: OpExit, Session: 7, Seq: 5, Fn: "f", Inst: inst}); resp.Err != "" {
		t.Errorf("exit after recovery: %s", resp.Err)
	}
	if server2.ActiveInstances() != 0 {
		t.Errorf("activations after exit: %d", server2.ActiveInstances())
	}
	crash(t, p2)
}

// TestDurableSnapshotRotationAndRecovery drives enough traffic through a
// small SnapshotEvery to force several snapshot+journal rotations, checks
// old generations are pruned, then crash-restarts and verifies recovery
// resumes from the newest snapshot.
func TestDurableSnapshotRotationAndRecovery(t *testing.T) {
	dir := t.TempDir()
	res := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	initFrag, fetchFrag := stressFrags(t, res)
	opts := DurabilityOptions{SnapshotEvery: 3}

	server1, dd1, p1 := startDurable(t, res, dir, opts)
	roundTrip := func(req Request) Response {
		t.Helper()
		resp, err := p1.roundTrip(dd1, req)
		if err != nil {
			t.Fatalf("round trip %+v: %v", req, err)
		}
		return resp
	}
	resp := roundTrip(Request{Op: OpEnter, Session: 9, Seq: 1, Fn: "f"})
	inst := resp.Inst
	seq := uint64(1)
	for i := 0; i < 6; i++ {
		seq++
		roundTrip(Request{Op: OpCall, Session: 9, Seq: seq, Fn: "f", Inst: inst,
			Frag: initFrag, Args: []interp.Value{interp.IntV(int64(100 + i))}})
		// Snapshots write in the background; let each one land so the
		// next due-check can rotate again (at most one is in flight).
		p1.snapWG.Wait()
	}
	seq++
	fetched := roundTrip(Request{Op: OpCall, Session: 9, Seq: seq, Fn: "f", Inst: inst, Frag: fetchFrag})
	if fetched.Err != "" {
		t.Fatalf("fetch: %s", fetched.Err)
	}
	p1.snapWG.Wait()
	liveStats := server1.Stats()
	gen := p1.gen
	if gen < 2 {
		t.Fatalf("generation %d after 8 records with SnapshotEvery=3, want >= 2", gen)
	}
	// Rotation prunes everything older than the previous generation.
	snaps, journals, err := p1.listGenerations()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range append(snaps, journals...) {
		if g+1 < gen {
			t.Errorf("generation %d not pruned (current %d)", g, gen)
		}
	}
	crash(t, p1)

	res2 := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	server2, dd2, p2 := startDurable(t, res2, dir, opts)
	rec := p2.Recovered()
	if !rec.SnapshotUsed || rec.Generation != gen {
		t.Errorf("recovery used snapshot=%v generation=%d, want true and %d", rec.SnapshotUsed, rec.Generation, gen)
	}
	if got := server2.Stats(); got != liveStats {
		t.Errorf("recovered stats %+v, want %+v", got, liveStats)
	}
	seq++
	again := mustRoundTrip(t, dd2, Request{Op: OpCall, Session: 9, Seq: seq, Fn: "f", Inst: inst, Frag: fetchFrag})
	if again.Err != "" || !again.Val.Equal(fetched.Val) {
		t.Errorf("post-recovery fetch %+v, want value %v", again, fetched.Val)
	}
	crash(t, p2)
}

// TestDurableTornTailTruncated corrupts the journal's last record the way
// a crash mid-write would and verifies recovery keeps the intact prefix,
// truncates the tail, and lets the client's retry re-execute the lost
// request cleanly.
func TestDurableTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	res := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	initFrag, fetchFrag := stressFrags(t, res)

	_, dd1, p1 := startDurable(t, res, dir, DurabilityOptions{})
	inst := mustRoundTrip(t, dd1, Request{Op: OpEnter, Session: 3, Seq: 1, Fn: "f"}).Inst
	mustRoundTrip(t, dd1, Request{Op: OpCall, Session: 3, Seq: 2, Fn: "f", Inst: inst,
		Frag: initFrag, Args: []interp.Value{interp.IntV(55)}})
	fetched := mustRoundTrip(t, dd1, Request{Op: OpCall, Session: 3, Seq: 3, Fn: "f", Inst: inst, Frag: fetchFrag})
	path := p1.journalPath(p1.gen)
	crash(t, p1)

	// Tear the last record's tail off.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	res2 := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	server2, dd2, p2 := startDurable(t, res2, dir, DurabilityOptions{})
	rec := p2.Recovered()
	if rec.Records != 2 {
		t.Errorf("recovered %d records from torn journal, want 2", rec.Records)
	}
	// The fetch (seq 3) was lost with the torn record, so the retry
	// re-executes it — against intact pre-crash state.
	retried := mustRoundTrip(t, dd2, Request{Op: OpCall, Session: 3, Seq: 3, Fn: "f", Inst: inst, Frag: fetchFrag})
	if retried.Err != "" || !retried.Val.Equal(fetched.Val) {
		t.Errorf("retry after torn tail %+v, want value %v", retried, fetched.Val)
	}
	if got := server2.Stats().Calls; got != 2 {
		t.Errorf("calls after torn-tail retry: %d, want 2", got)
	}
	crash(t, p2)
}

// TestDurableUndecodableRecordTruncated plants a CRC-clean frame that no
// record decoder accepts between two journaled records. Recovery must
// treat it like a torn tail: keep the records before it, truncate the
// journal at its offset (dropping the intact record behind it), trace
// the cut once, and let the next append land where the bad frame was so
// that a second restart recovers it.
func TestDurableUndecodableRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	res := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	initFrag, fetchFrag := stressFrags(t, res)

	_, dd1, p1 := startDurable(t, res, dir, DurabilityOptions{})
	inst := mustRoundTrip(t, dd1, Request{Op: OpEnter, Session: 3, Seq: 1, Fn: "f"}).Inst
	mustRoundTrip(t, dd1, Request{Op: OpCall, Session: 3, Seq: 2, Fn: "f", Inst: inst,
		Frag: initFrag, Args: []interp.Value{interp.IntV(55)}})
	fetch := Request{Op: OpCall, Session: 3, Seq: 3, Fn: "f", Inst: inst, Frag: fetchFrag}
	fetched := mustRoundTrip(t, dd1, fetch)
	path := p1.journalPath(p1.gen)
	crash(t, p1)

	cut, err := truncatedPrefix(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := []byte{0xff} // no such op
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(bad)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(bad))
	planted := slices.Concat(data[:cut], frame[:], bad, data[cut:])
	if err := os.WriteFile(path, planted, 0o644); err != nil {
		t.Fatal(err)
	}

	tracer := obs.NewTracer(obs.TracerConfig{Level: obs.LevelDebug})
	server2, dd2, p2 := startDurable(t, res, dir, DurabilityOptions{Tracer: tracer})
	if got := p2.Recovered().Records; got != 2 {
		t.Errorf("recovered %d records past an undecodable one, want 2", got)
	}
	if got := p2.wlog.Size(); got != cut {
		t.Errorf("journal reopened at %d, want the undecodable record's offset %d", got, cut)
	}
	traced := 0
	for _, ev := range tracer.Events() {
		if ev.Kind == "wal_record_undecodable" {
			traced++
		}
	}
	if traced != 1 {
		t.Errorf("wal_record_undecodable traced %d times, want 1", traced)
	}
	// The fetch was cut with the record behind the bad frame, so the retry
	// re-executes it, and its record is the one at the cut.
	retried := mustRoundTrip(t, dd2, fetch)
	if retried.Err != "" || !retried.Val.Equal(fetched.Val) {
		t.Errorf("retry after undecodable record %+v, want value %v", retried, fetched.Val)
	}
	if got := server2.Stats().Calls; got != 2 {
		t.Errorf("calls after the retry: %d, want 2", got)
	}
	if at, err := truncatedPrefix(path, 2); err != nil || at != cut {
		t.Fatalf("next append landed after %d bytes (%v), want %d", at, err, cut)
	}
	crash(t, p2)

	server3, dd3, p3 := startDurable(t, res, dir, DurabilityOptions{})
	defer crash(t, p3)
	if got := p3.Recovered().Records; got != 3 {
		t.Errorf("second restart recovered %d records, want 3", got)
	}
	if got := server3.Stats().Calls; got != 2 {
		t.Errorf("recovered calls = %d, want 2", got)
	}
	again := mustRoundTrip(t, dd3, fetch) // a replay, not a third execution
	if again.Err != "" || !again.Val.Equal(fetched.Val) || server3.Stats().Calls != 2 {
		t.Errorf("replayed fetch %+v (calls %d), want value %v from the replay cache", again, server3.Stats().Calls, fetched.Val)
	}
}

// TestDurablePoisonedSessionSurvivesRestart checks that a session poisoned
// by a failed one-way request stays poisoned across a crash: its deferred
// error must keep surfacing instead of silently executing new requests.
func TestDurablePoisonedSessionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	res := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})

	_, dd1, p1 := startDurable(t, res, dir, DurabilityOptions{})
	inst := mustRoundTrip(t, dd1, Request{Op: OpEnter, Session: 5, Seq: 1, Fn: "f"}).Inst
	// A one-way call against a fragment that does not exist: the error is
	// deferred, not returned.
	mustRoundTrip(t, dd1, Request{Op: OpCall, Session: 5, Seq: 2, Fn: "f", Inst: inst,
		Frag: 9999, Flags: ReqNoReply})
	poisoned := mustRoundTrip(t, dd1, Request{Op: OpCall, Session: 5, Seq: 3, Fn: "f", Inst: inst, Frag: 9999})
	if poisoned.Err == "" {
		t.Fatal("deferred error did not surface before the crash")
	}
	crash(t, p1)

	res2 := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	_, dd2, p2 := startDurable(t, res2, dir, DurabilityOptions{})
	retried := mustRoundTrip(t, dd2, Request{Op: OpCall, Session: 5, Seq: 3, Fn: "f", Inst: inst, Frag: 9999})
	if retried.Err != poisoned.Err {
		t.Errorf("replayed poisoned response %q, want %q", retried.Err, poisoned.Err)
	}
	next := mustRoundTrip(t, dd2, Request{Op: OpCall, Session: 5, Seq: 4, Fn: "f", Inst: inst, Frag: 9999})
	if next.Err == "" || !strings.Contains(next.Err, poisoned.Err) {
		t.Errorf("post-restart request on poisoned session answered %q, want deferred error %q", next.Err, poisoned.Err)
	}
	crash(t, p2)
}

// TestDurableTCPRestartEndToEnd runs the full open program against a
// durable TCP server, restarts it gracefully (Close writes the final
// snapshot), recompiles the program, and runs again: outputs and the
// cumulative execution tallies must match a control server that never
// restarted — hidden globals, per-object field stores, and stats all
// carried across the restart.
func TestDurableTCPRestartEndToEnd(t *testing.T) {
	runOnce := func(t *testing.T, res *core.Result, addr string, session uint64) string {
		t.Helper()
		tr := dialStream(t, MuxConfig{Addr: addr}, session, nil)
		var b strings.Builder
		in := vm.NewMachine(res.Open, interp.Options{
			Out:        &b,
			Hidden:     &Session{T: tr, Addr: addr},
			SplitFuncs: res.SplitSet(),
		})
		if err := in.Run(); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	// Control: two back-to-back runs against one long-lived server. The
	// second run's output differs from the first (the hidden global
	// accumulates), which is exactly what makes it a restart-sensitive
	// oracle.
	control := durableSplit(t)
	cts := &TCPServer{Server: NewServer(NewRegistry(control))}
	caddr, err := cts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	want1 := runOnce(t, control, caddr.String(), 1)
	want2 := runOnce(t, control, caddr.String(), 2)
	wantStats := cts.Server.Stats()
	cts.Close()
	if want1 == want2 {
		t.Fatal("oracle is restart-insensitive: both runs printed the same output")
	}

	dir := t.TempDir()
	res1 := durableSplit(t)
	ts1 := &TCPServer{Server: NewServer(NewRegistry(res1)), Persist: NewDurability(DurabilityOptions{Dir: dir})}
	addr1, err := ts1.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if got := runOnce(t, res1, addr1.String(), 1); got != want1 {
		t.Errorf("first durable run printed %q, want %q", got, want1)
	}
	if err := ts1.Close(); err != nil {
		t.Fatal(err)
	}

	res2 := durableSplit(t)
	p2 := NewDurability(DurabilityOptions{Dir: dir})
	ts2 := &TCPServer{Server: NewServer(NewRegistry(res2)), Persist: p2}
	addr2, err := ts2.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts2.Close()
	if rec := p2.Recovered(); !rec.SnapshotUsed {
		t.Errorf("graceful restart did not recover from the final snapshot: %+v", rec)
	}
	if got := runOnce(t, res2, addr2.String(), 2); got != want2 {
		t.Errorf("post-restart run printed %q, want %q", got, want2)
	}
	if got := ts2.Server.Stats(); got != wantStats {
		t.Errorf("cumulative stats after restart %+v, want %+v", got, wantStats)
	}
}

// TestDurableRecoveryRejectsChangedProgram: resuming a journal against a
// different program must abort recovery loudly, not corrupt hidden state.
func TestDurableRecoveryRejectsChangedProgram(t *testing.T) {
	dir := t.TempDir()
	res := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	initFrag, _ := stressFrags(t, res)
	_, dd1, p1 := startDurable(t, res, dir, DurabilityOptions{})
	inst := mustRoundTrip(t, dd1, Request{Op: OpEnter, Session: 2, Seq: 1, Fn: "f"}).Inst
	mustRoundTrip(t, dd1, Request{Op: OpCall, Session: 2, Seq: 2, Fn: "f", Inst: inst,
		Frag: initFrag, Args: []interp.Value{interp.IntV(1)}})
	crash(t, p1)

	other := durableSplit(t) // splits C.bump; has no component named f
	server := NewServer(NewRegistry(other))
	dd := &Dedup{Inner: &Local{Server: server}}
	p := NewDurability(DurabilityOptions{Dir: dir})
	if err := p.start(server, dd); err == nil {
		t.Fatal("recovery against a different program must fail")
	}
}

// TestSessionEvictedErrorTyped: the client surfaces a server-side bounce
// as the typed, actionable error — which server, which session, a
// remediation hint — and tallies it.
func TestSessionEvictedErrorTyped(t *testing.T) {
	res := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	dd := &Dedup{Inner: &Local{Server: NewServer(NewRegistry(res))}, MaxSessions: 1}
	counters := &Counters{}
	sess := &Session{T: &stampTransport{inner: dd, session: 11}, Addr: "hidden-host:4000", Counters: counters}
	if _, err := sess.Enter("f", 0); err != nil {
		t.Fatal(err)
	}
	// Another session pushes 11 out of the single-slot replay cache.
	if _, err := dd.RoundTrip(Request{Op: OpEnter, Session: 12, Seq: 1, Fn: "f"}); err != nil {
		t.Fatal(err)
	}
	_, err := sess.Call("f", 1, 0, nil)
	if err == nil {
		t.Fatal("call after eviction must fail")
	}
	if !IsSessionEvicted(err) {
		t.Fatalf("IsSessionEvicted(%v) = false", err)
	}
	var evicted *SessionEvictedError
	if !errors.As(err, &evicted) {
		t.Fatalf("error %v is not a *SessionEvictedError", err)
	}
	if evicted.Addr != "hidden-host:4000" {
		t.Errorf("evicted.Addr = %q", evicted.Addr)
	}
	if evicted.Session != 11 {
		t.Errorf("evicted.Session = %d, want 11", evicted.Session)
	}
	if evicted.Hint() == "" {
		t.Error("eviction error carries no remediation hint")
	}
	if got := counters.SessionBounces.Load(); got != 1 {
		t.Errorf("SessionBounces = %d, want 1", got)
	}
}

// stampTransport stamps (session, seq) like a client stream does, without
// its retry machinery.
type stampTransport struct {
	inner   Transport
	session uint64
	seq     uint64
}

func (t *stampTransport) RoundTrip(req Request) (Response, error) {
	t.seq++
	req.Session = t.session
	req.Seq = t.seq
	return t.inner.RoundTrip(req)
}

// TestDrainQuiescesServer: Drain stops accepting, reports connections that
// finish within the deadline as drained, and leaves stragglers for Close.
func TestDrainQuiescesServer(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	ts := &TCPServer{Server: NewServer(NewRegistry(res))}
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	finishing, err := DialMux(MuxConfig{Addr: addr.String()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := finishing.Stream(0, nil).RoundTrip(Request{Op: OpEnter, Fn: "f"}); err != nil {
		t.Fatal(err)
	}
	straggler, err := DialMux(MuxConfig{Addr: addr.String()})
	if err != nil {
		t.Fatal(err)
	}
	defer straggler.Close()
	if _, err := straggler.Stream(0, nil).RoundTrip(Request{Op: OpEnter, Fn: "f"}); err != nil {
		t.Fatal(err)
	}

	// One client disconnects shortly after the drain begins; the other
	// stays connected past the deadline.
	go func() {
		time.Sleep(20 * time.Millisecond)
		finishing.Close()
	}()
	stats := ts.Drain(300 * time.Millisecond)
	if stats.Drained != 1 || stats.Aborted != 1 {
		t.Errorf("drain stats %+v, want {Drained:1 Aborted:1}", stats)
	}
	// The listener is down: new connections are refused or severed without
	// service.
	if late, err := DialMux(MuxConfig{Addr: addr.String(), Timeout: time.Second}); err == nil {
		late.Close()
		t.Error("draining server served a new connection")
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	if ts.ActiveConns() != 0 {
		t.Errorf("connections after close: %d", ts.ActiveConns())
	}
}

// TestDrainEmptyServer: draining with no connections returns immediately.
func TestDrainEmptyServer(t *testing.T) {
	res := split(t, testSrc, core.Spec{Func: "f", Seed: "a"})
	ts := &TCPServer{Server: NewServer(NewRegistry(res))}
	if _, err := ts.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	start := time.Now()
	stats := ts.Drain(5 * time.Second)
	if stats != (DrainStats{}) {
		t.Errorf("drain stats %+v, want zero", stats)
	}
	if time.Since(start) > time.Second {
		t.Error("drain of an idle server waited for the deadline")
	}
}
