package hrt

import (
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slicehide/internal/core"
	"slicehide/internal/interp"
	"slicehide/internal/obs"
	"slicehide/internal/wal"
)

// Group-commit and pause-free snapshot coverage. These tests drive the
// durability layer directly (same package) so they can gate the fsync
// path with wal.Journal's fault-injectable sync hook and the background
// snapshot writer with testHookSnapshotWrite.

// TestGroupCommitCoalescesConcurrentAppends holds the first batch's
// fsync open until seven more records are queued behind it, then checks
// the committer drained them in at most one further batch — the batching
// the fsync backpressure argument promises — and that every record
// scans back from disk.
func TestGroupCommitCoalescesConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	res := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	_, _, p := startDurable(t, res, dir, DurabilityOptions{
		Fsync: true, CommitBytes: 1 << 20, SnapshotEvery: -1,
	})
	defer crash(t, p)

	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	// A t.Fatalf below must still let the deferred crash stop the
	// committer, which is stuck inside the held fsync.
	t.Cleanup(unblock)
	var syncs atomic.Int32
	p.onCommit(func() error {
		if syncs.Add(1) == 1 {
			<-release
		}
		return nil
	})

	const writers = 8
	var wg sync.WaitGroup
	errs := make([]error, writers)
	spawn := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = p.append([]byte{byte('a' + i)}, true)
		}()
	}
	// First writer alone: its batch takes the held fsync.
	spawn(0)
	deadline := time.Now().Add(5 * time.Second)
	for syncs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first append never reached the fsync hook")
		}
		time.Sleep(time.Millisecond)
	}
	// The other seven pile up in the queue behind the blocked fsync.
	for i := 1; i < writers; i++ {
		spawn(i)
	}
	for len(p.commitq) < writers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d records queued behind the held fsync", len(p.commitq), writers-1)
		}
		time.Sleep(time.Millisecond)
	}
	unblock()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}

	batches, records := p.CommitBatchStats()
	if records != writers {
		t.Errorf("committed records = %d, want %d", records, writers)
	}
	if batches > 2 {
		t.Errorf("%d records took %d batches, want ≤ 2 (one held, one coalesced)", writers, batches)
	}
	var scanned int
	if _, _, err := wal.ScanFile(p.journalPath(p.gen), func([]byte) error {
		scanned++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if scanned != writers {
		t.Errorf("journal scans back %d records, want %d", scanned, writers)
	}
}

// TestGroupCommitCrashInsideBatch: the machine dies between a batch's
// coalesced write and its flush. Every acknowledged record before the
// doomed batch was flushed, so the log end read just before it is the
// durable boundary; after the crash the journal reads as zeros from that
// boundary on, simulating the lost cache over the durable zero fill (the
// file's length is no boundary any more: it lies a chunk beyond the log
// end, so truncating to f.Stat().Size() would keep the doomed batch).
// Recovery must resume from the flushed prefix, and the client's retry of
// the lost request must re-execute exactly once.
func TestGroupCommitCrashInsideBatch(t *testing.T) {
	dir := t.TempDir()
	res := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	initFrag, fetchFrag := stressFrags(t, res)
	opts := DurabilityOptions{Fsync: true, CommitBytes: 1 << 20, SnapshotEvery: -1}

	server1, dd1, p1 := startDurable(t, res, dir, opts)

	resp := mustRoundTrip(t, dd1, Request{Op: OpEnter, Session: 5, Seq: 1, Fn: "f"})
	inst := resp.Inst
	mustRoundTrip(t, dd1, Request{Op: OpCall, Session: 5, Seq: 2, Fn: "f", Inst: inst,
		Frag: initFrag, Args: []interp.Value{interp.IntV(41)}})
	durableCalls := server1.Stats().Calls

	// The doomed batch: written and acknowledged, its flush lost.
	durable := p1.wlog.Size()
	mustRoundTrip(t, dd1, Request{Op: OpCall, Session: 5, Seq: 3, Fn: "f", Inst: inst,
		Frag: initFrag, Args: []interp.Value{interp.IntV(7)}})
	journalFile := p1.journalPath(p1.gen)
	crash(t, p1)
	zeroJournalFrom(t, journalFile, durable)

	res2 := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	server2, dd2, p2 := startDurable(t, res2, dir, opts)
	defer crash(t, p2)
	rec := p2.Recovered()
	if rec.Records != 2 {
		t.Errorf("recovered %d records, want the 2 fsynced ones", rec.Records)
	}
	if got := server2.Stats().Calls; got != durableCalls {
		t.Errorf("recovered calls = %d, want %d", got, durableCalls)
	}

	// The client retries the swallowed seq 3: it is past the recovered
	// high-water mark, so it executes — once.
	mustRoundTrip(t, dd2, Request{Op: OpCall, Session: 5, Seq: 3, Fn: "f", Inst: inst,
		Frag: initFrag, Args: []interp.Value{interp.IntV(7)}})
	if got := server2.Stats().Calls; got != durableCalls+1 {
		t.Errorf("retry executed %d times", got-durableCalls)
	}
	fetched := mustRoundTrip(t, dd2, Request{Op: OpCall, Session: 5, Seq: 4, Fn: "f", Inst: inst, Frag: fetchFrag})
	if fetched.Err != "" || !fetched.Val.Equal(interp.IntV(7)) {
		t.Errorf("post-retry fetch %+v, want 7", fetched)
	}
}

// TestSnapshotPauseFreeUnderLoad blocks the background snapshot writer
// indefinitely and proves request traffic keeps flowing — the quiesce
// write-hold cannot depend on serialization or disk I/O if requests
// commit while both are stuck. Then it releases the writer and checks
// the snapshot landed and recovery uses it.
func TestSnapshotPauseFreeUnderLoad(t *testing.T) {
	dir := t.TempDir()
	res := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	initFrag, fetchFrag := stressFrags(t, res)
	reg := obs.NewRegistry()

	server1 := NewServer(NewRegistry(res))
	dd1 := &Dedup{Inner: &Local{Server: server1}}
	p1 := NewDurability(DurabilityOptions{Dir: dir, SnapshotEvery: -1})
	p1.RegisterMetrics(reg)
	writing := make(chan struct{})
	release := make(chan struct{})
	p1.testHookSnapshotWrite = func() {
		close(writing)
		<-release
	}
	if err := p1.start(server1, dd1); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	dd1.Persist = p1

	resp := mustRoundTrip(t, dd1, Request{Op: OpEnter, Session: 3, Seq: 1, Fn: "f"})
	inst := resp.Inst
	seq := uint64(1)
	// Pile up journal records so the hold would be long if it covered
	// serialization of the accumulated history.
	for i := 0; i < 500; i++ {
		seq++
		mustRoundTrip(t, dd1, Request{Op: OpCall, Session: 3, Seq: seq, Fn: "f", Inst: inst,
			Frag: initFrag, Args: []interp.Value{interp.IntV(int64(i))}})
	}
	if err := p1.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	<-writing // the writer goroutine is now stuck before serialization

	// Traffic continues while the snapshot is "writing": these commits go
	// to the rotated journal generation.
	for i := 0; i < 50; i++ {
		seq++
		mustRoundTrip(t, dd1, Request{Op: OpCall, Session: 3, Seq: seq, Fn: "f", Inst: inst,
			Frag: initFrag, Args: []interp.Value{interp.IntV(int64(1000 + i))}})
	}
	fetched := mustRoundTrip(t, dd1, Request{Op: OpCall, Session: 3, Seq: seq + 1, Fn: "f", Inst: inst, Frag: fetchFrag})
	if fetched.Err != "" || !fetched.Val.Equal(interp.IntV(1049)) {
		t.Fatalf("fetch during snapshot write %+v, want 1049", fetched)
	}
	close(release)
	p1.snapWG.Wait()

	pause := reg.Snapshot().Histograms["wal_snapshot_pause_ns"]
	if pause.Count != 1 {
		t.Errorf("wal_snapshot_pause_ns count = %d, want 1", pause.Count)
	}
	liveStats := server1.Stats()
	crash(t, p1)

	res2 := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	server2, _, p2 := startDurable(t, res2, dir, DurabilityOptions{SnapshotEvery: -1})
	defer crash(t, p2)
	rec := p2.Recovered()
	if !rec.SnapshotUsed || rec.Generation != 1 {
		t.Errorf("recovery snapshot=%v generation=%d, want true and 1", rec.SnapshotUsed, rec.Generation)
	}
	if got := server2.Stats(); got != liveStats {
		t.Errorf("recovered stats %+v, want %+v", got, liveStats)
	}
}

// TestJournalChainRecovery covers the recovery shape background
// snapshots introduce: journal-(g+1) in service while snap-(g+1) never
// became readable. Recovery must fall back to the older base and replay
// the journal chain across both generations.
func TestJournalChainRecovery(t *testing.T) {
	dir := t.TempDir()
	res := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	initFrag, fetchFrag := stressFrags(t, res)
	opts := DurabilityOptions{SnapshotEvery: -1}

	server1, dd1, p1 := startDurable(t, res, dir, opts)
	resp := mustRoundTrip(t, dd1, Request{Op: OpEnter, Session: 4, Seq: 1, Fn: "f"})
	inst := resp.Inst
	mustRoundTrip(t, dd1, Request{Op: OpCall, Session: 4, Seq: 2, Fn: "f", Inst: inst,
		Frag: initFrag, Args: []interp.Value{interp.IntV(11)}})
	if err := p1.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	p1.snapWG.Wait()
	// Two more records land in generation 1's journal.
	mustRoundTrip(t, dd1, Request{Op: OpCall, Session: 4, Seq: 3, Fn: "f", Inst: inst,
		Frag: initFrag, Args: []interp.Value{interp.IntV(23)}})
	liveStats := server1.Stats()
	crash(t, p1)
	// The generation-1 snapshot is lost (crash before its write landed,
	// in chain terms); only journal-0 + journal-1 remain to reproduce it.
	if err := os.Remove(p1.snapPath(1)); err != nil {
		t.Fatal(err)
	}

	res2 := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
	server2, dd2, p2 := startDurable(t, res2, dir, opts)
	defer crash(t, p2)
	rec := p2.Recovered()
	if rec.SnapshotUsed {
		t.Error("no readable snapshot, yet recovery reports one")
	}
	if rec.Generation != 1 || rec.Records != 3 {
		t.Errorf("recovered generation=%d records=%d, want 1 and 3 (chained)", rec.Generation, rec.Records)
	}
	if got := server2.Stats(); got != liveStats {
		t.Errorf("recovered stats %+v, want %+v", got, liveStats)
	}
	fetched := mustRoundTrip(t, dd2, Request{Op: OpCall, Session: 4, Seq: 4, Fn: "f", Inst: inst, Frag: fetchFrag})
	if fetched.Err != "" || !fetched.Val.Equal(interp.IntV(23)) {
		t.Errorf("post-chain fetch %+v, want 23", fetched)
	}
}

// TestJournalChainAcrossUnsealedGeneration is the crash right after a
// rotation under Fsync: journal-1 is in service, and the process dies
// before the snapshot writer sealed journal-0 (truncated its zero fill
// away) or landed snap-1. Journal-0 then ends in zeros, not at its log
// end. Those zeros are not damage: the chain must carry on into
// journal-1. A torn record in the same place still cuts it.
func TestJournalChainAcrossUnsealedGeneration(t *testing.T) {
	for _, shape := range []struct {
		name        string
		suffix      []byte
		wantGen     uint64
		wantRecords int64
	}{
		{"zero fill", make([]byte, 1<<20), 1, 3},
		{"zero fill then a stale frame", append(make([]byte, 4096), 9, 0, 0, 0, 1, 2, 3, 4), 0, 2},
	} {
		t.Run(shape.name, func(t *testing.T) {
			dir := t.TempDir()
			res := split(t, stressSrc, core.Spec{Func: "f", Seed: "a"})
			initFrag, fetchFrag := stressFrags(t, res)
			opts := DurabilityOptions{Fsync: true, CommitBytes: 1 << 20, SnapshotEvery: -1}

			_, dd1, p1 := startDurable(t, res, dir, opts)
			inst := mustRoundTrip(t, dd1, Request{Op: OpEnter, Session: 4, Seq: 1, Fn: "f"}).Inst
			mustRoundTrip(t, dd1, Request{Op: OpCall, Session: 4, Seq: 2, Fn: "f", Inst: inst,
				Frag: initFrag, Args: []interp.Value{interp.IntV(11)}})
			sealedEnd := p1.wlog.Size()
			if err := p1.Snapshot(); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			p1.snapWG.Wait()
			mustRoundTrip(t, dd1, Request{Op: OpCall, Session: 4, Seq: 3, Fn: "f", Inst: inst,
				Frag: initFrag, Args: []interp.Value{interp.IntV(23)}})
			crash(t, p1)
			// Undo what the snapshot writer got done before the "crash".
			if err := os.Remove(p1.snapPath(1)); err != nil {
				t.Fatal(err)
			}
			writeJournalAt(t, p1.journalPath(0), sealedEnd, shape.suffix)

			_, dd2, p2 := startDurable(t, split(t, stressSrc, core.Spec{Func: "f", Seed: "a"}), dir, opts)
			defer crash(t, p2)
			rec := p2.Recovered()
			if rec.Generation != shape.wantGen || rec.Records != shape.wantRecords {
				t.Fatalf("recovered generation=%d records=%d, want %d and %d", rec.Generation, rec.Records, shape.wantGen, shape.wantRecords)
			}
			want := []int64{11, 23}[shape.wantGen]
			fetched := mustRoundTrip(t, dd2, Request{Op: OpCall, Session: 4, Seq: uint64(shape.wantRecords) + 1, Fn: "f", Inst: inst, Frag: fetchFrag})
			if fetched.Err != "" || !fetched.Val.Equal(interp.IntV(want)) {
				t.Errorf("post-recovery fetch %+v, want %d", fetched, want)
			}
		})
	}
}
