package hrt

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slicehide/internal/core"
	"slicehide/internal/interp"
	"slicehide/internal/wal"
)

// listenFsync starts ts journaling with fsync, so the group committer
// runs, and dials one mux connection to it asking for window.
func listenFsync(t *testing.T, ts *TCPServer, window int) *MuxTransport {
	t.Helper()
	ts.Persist = NewDurability(DurabilityOptions{Dir: t.TempDir(), Fsync: true, SnapshotEvery: -1})
	addr, err := ts.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	mt, err := DialMux(MuxConfig{Addr: addr.String(), Timeout: 5 * time.Second, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mt.Close() })
	return mt
}

// TestGroupCommitRepliesShareOneFlush holds the fsync while eight sessions
// of one mux connection queue their records behind it, then lets it go:
// the committer releases their workers one at a time, and the eight
// replies must still leave the server in at most two writes, none of them
// before the held fsync returned.
func TestGroupCommitRepliesShareOneFlush(t *testing.T) {
	// On one processor the order is fixed: the committer readies every
	// released worker before any runs, and the first reply readies the
	// writer ahead of the others.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	ts := &TCPServer{Server: NewServer(NewRegistry(res))}
	mt := listenFsync(t, ts, 0)
	p := ts.Persist

	var durable atomic.Bool // the held fsync has returned
	entered, gate := make(chan struct{}), make(chan struct{})
	var enterOnce, releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate) }) }
	t.Cleanup(release) // before ts.Close, which waits for the committer
	p.onCommit(func() error {
		enterOnce.Do(func() {
			close(entered)
			<-gate
		})
		durable.Store(true)
		return nil
	})
	// The holder's record takes the first fsync; it is served in process,
	// so its reply is no mux frame.
	holder := make(chan error, 1)
	go func() {
		_, err := ts.roundTrip(Request{Op: OpEnter, Session: 1000, Seq: 1, Fn: "f"})
		holder <- err
	}()
	<-entered

	const sessions = 8
	replies := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		s := mt.Stream(uint64(100+i), nil)
		go func() {
			resp, err := s.RoundTrip(Request{Op: OpEnter, Fn: "f"})
			if err == nil && resp.Err != "" {
				err = errors.New(resp.Err)
			}
			if err == nil && !durable.Load() {
				err = fmt.Errorf("session %d answered before the held fsync returned", s.Session())
			}
			replies <- err
		}()
	}
	waitFor(t, "eight records queued behind the held fsync", func() bool { return len(p.commitq) == sessions })
	frames, flushes := ts.muxFrames.Load(), ts.muxFlushes.Load()
	release()
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sessions; i++ {
		if err := <-replies; err != nil {
			t.Error(err)
		}
	}
	waitFor(t, "eight reply frames written", func() bool { return ts.muxFrames.Load()-frames == sessions })
	waitFor(t, "released records finished", func() bool { return p.released.Load() == 0 })
	if got := ts.muxFlushes.Load() - flushes; got > 2 {
		t.Errorf("one batch's %d replies took %d flushes, want ≤ 2", sessions, got)
	}
}

// TestGroupCommitReleasedCountReturnsToZero walks every way a request can
// end on an fsync server — answered from the replay cache, an error reply,
// one-way calls and their window updates, a redirect, a replicated apply
// and a poisoned journal's error — and checks after each that no record
// the committer released is still counted as unfinished: a miscount would
// make every later flush wait out its yields.
func TestGroupCommitReleasedCountReturnsToZero(t *testing.T) {
	res := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	initFrag, fetchFrag := stressFrags(t, res)
	router := &flipRouter{owner: "10.0.0.99:7070"}
	ts := &TCPServer{Server: NewServer(NewRegistry(res)), Router: router}
	mt := listenFsync(t, ts, 4) // a window update every 2 one-way calls
	p := ts.Persist
	settled := func(what string) {
		t.Helper()
		waitFor(t, what+" finishing its released records", func() bool { return p.released.Load() == 0 })
	}
	s := mt.Stream(0, nil)
	call := func(req Request) Response {
		t.Helper()
		resp, err := s.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	flushes := ts.muxFlushes.Load()
	inst := call(Request{Op: OpEnter, Fn: "f"}).Inst
	settled("a lone call")
	// The writer counts a flush once it returns, after the client can
	// already hold the reply.
	waitFor(t, "the lone reply's flush counted", func() bool { return ts.muxFlushes.Load() > flushes })
	if got := ts.muxFlushes.Load() - flushes; got != 1 {
		t.Errorf("a lone call on an idle server took %d flushes, want 1", got)
	}

	if resp, err := mt.Exchange(Request{Op: OpEnter, Fn: "f", Session: s.Session(), Seq: 1}); err != nil || resp.Inst != inst {
		t.Fatalf("replay-cache hit answered %+v, %v", resp, err)
	}
	settled("a replay-cache hit")

	if resp := call(Request{Op: OpCall, Fn: "f", Inst: inst + 100, Frag: initFrag, Args: []interp.Value{interp.IntV(1)}}); resp.Err == "" {
		t.Fatal("a call on a missing activation succeeded")
	}
	settled("an error reply")

	updates := ts.muxWindowUpdates.Load()
	for i := int64(1); i <= 9; i++ {
		if err := s.Send(Request{Op: OpCall, Fn: "f", Inst: inst, Frag: initFrag, Args: []interp.Value{interp.IntV(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if ts.muxWindowUpdates.Load() == updates {
		t.Error("nine one-way calls at window 4 sent no window update")
	}
	settled("one-way calls")

	router.on.Store(true)
	if resp := call(Request{Op: OpCall, Fn: "f", Inst: inst, Frag: fetchFrag}); ParseOwnerRedirect(resp.Err, "") == nil {
		t.Fatalf("routed away, the call answered %+v", resp)
	}
	router.on.Store(false)
	settled("a redirect")
	if resp := call(Request{Op: OpCall, Fn: "f", Inst: inst, Frag: fetchFrag}); resp.Err != "" || !resp.Val.Equal(interp.IntV(9)) {
		t.Fatalf("fetch after the one-way calls answered %+v, want 9", resp)
	}

	// A record from another server's journal, applied the way a fleet
	// peer's stream lands it.
	_, odd, op := startDurable(t, res, t.TempDir(), DurabilityOptions{SnapshotEvery: -1})
	t.Cleanup(func() { crash(t, op) })
	mustRoundTrip(t, odd, Request{Op: OpEnter, Session: 5000, Seq: 1, Fn: "f"})
	var payloads [][]byte
	if _, _, err := wal.ScanFile(op.journalPath(op.gen), func(b []byte) error {
		payloads = append(payloads, append([]byte(nil), b...))
		return nil
	}); err != nil || len(payloads) != 1 {
		t.Fatalf("peer journal holds %d records (%v), want 1", len(payloads), err)
	}
	enters := ts.Server.Stats().Enters
	if err := ts.ApplyReplicated(payloads[0]); err != nil {
		t.Fatal(err)
	}
	if got := ts.Server.Stats().Enters; got != enters+1 {
		t.Errorf("the replicated apply took enters from %d to %d, want one more", enters, got)
	}
	settled("a replicated apply")

	p.onCommit(func() error { return errors.New("device gone") })
	for i := 0; i < 2; i++ { // the failed batch's record, then one refused up front
		if resp := call(Request{Op: OpCall, Fn: "f", Inst: inst, Frag: fetchFrag}); !strings.Contains(resp.Err, "journal append failed") {
			t.Fatalf("call %d on a poisoned journal answered %+v", i, resp)
		}
	}
	settled("a poisoned journal's errors")
}

// TestCrashDamagedJournalHeaderRefusesStart flips the first byte of a tip
// journal that holds an acknowledged call. The server must refuse to
// start with a *wal.DamagedError naming the file, and leave the file as
// it was, instead of reading it as empty and truncating the call away.
func TestCrashDamagedJournalHeaderRefusesStart(t *testing.T) {
	dir := t.TempDir()
	res := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	initFrag, _ := stressFrags(t, res)
	_, dd, p := startDurable(t, res, dir, DurabilityOptions{Fsync: true, SnapshotEvery: -1})
	inst := mustRoundTrip(t, dd, Request{Op: OpEnter, Session: 3, Seq: 1, Fn: "f"}).Inst
	if resp := mustRoundTrip(t, dd, Request{Op: OpCall, Session: 3, Seq: 2, Fn: "f", Inst: inst,
		Frag: initFrag, Args: []interp.Value{interp.IntV(5)}}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	path := p.journalPath(p.gen)
	crash(t, p)

	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	before[0] ^= 0xff
	if err := os.WriteFile(path, before, 0o644); err != nil {
		t.Fatal(err)
	}
	ts := &TCPServer{Server: NewServer(NewRegistry(res)), Persist: NewDurability(DurabilityOptions{Dir: dir, Fsync: true, SnapshotEvery: -1})}
	if _, err := ts.ListenAndServe("127.0.0.1:0"); err == nil {
		ts.Close()
		t.Fatalf("server started over a damaged journal header, recovering %d records", ts.Persist.Recovered().Records)
	} else {
		var damaged *wal.DamagedError
		if !errors.As(err, &damaged) || damaged.Path != path || damaged.Size != int64(len(before)) || damaged.Offset != 0 {
			t.Fatalf("start failed with %v, want a *wal.DamagedError for %s (%d bytes) at offset 0", err, path, len(before))
		}
	}
	if after, err := os.ReadFile(path); err != nil || string(after) != string(before) {
		t.Errorf("the refused start changed the journal: %d bytes (%v), had %d", len(after), err, len(before))
	}
}
