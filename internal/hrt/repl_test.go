package hrt

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"testing"

	"slicehide/internal/interp"
	"slicehide/internal/wal"
)

func TestReplFrameRoundTrip(t *testing.T) {
	frames := []ReplFrame{
		{Type: ReplFrameRecord, Gen: 0, Index: 1, Payload: []byte("hello")},
		{Type: ReplFrameRecord, Gen: 7, Index: 1 << 40, Payload: nil},
		{Type: ReplFrameAck, Gen: 3, Index: 12345},
		{Type: ReplFrameRecord, Gen: 1, Index: 2, Payload: bytes.Repeat([]byte{0xAB}, replReadChunk+17)},
	}
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for _, f := range frames {
		if err := WriteReplFrame(w, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, want := range frames {
		got, err := ReadReplFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Gen != want.Gen || got.Index != want.Index {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: payload mismatch (%d vs %d bytes)", i, len(got.Payload), len(want.Payload))
		}
	}
	if _, err := ReadReplFrame(&buf); err != io.EOF {
		t.Fatalf("trailing read: got %v, want EOF", err)
	}
}

func TestReplFrameRejectsBadInput(t *testing.T) {
	// Unknown type byte.
	b, err := AppendReplFrame(nil, ReplFrame{Type: ReplFrameRecord, Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	b[0] = 99
	if _, err := ReadReplFrame(bytes.NewReader(b)); err == nil {
		t.Fatal("unknown frame type accepted")
	}

	// Oversized payload refuses to encode.
	if err := WriteReplFrame(bufio.NewWriter(io.Discard), ReplFrame{Type: ReplFrameRecord, Payload: make([]byte, maxReplPayload+1)}); err == nil {
		t.Fatal("oversized payload encoded")
	}

	// A lying length field (bytes absent) errors instead of blocking on a
	// giant allocation.
	head := make([]byte, 21)
	head[0] = ReplFrameRecord
	head[17] = 0xFF
	head[18] = 0xFF
	head[19] = 0xFF // length ~16M, no payload follows
	if _, err := ReadReplFrame(bytes.NewReader(head)); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

// TestWriteReplFrameAllocatesNothing pins the streaming path's frame
// writer: head and payload go straight into the bufio.Writer, whatever is
// left in it, and the bytes are the ones AppendReplFrame produces.
func TestWriteReplFrameAllocatesNothing(t *testing.T) {
	var sink bytes.Buffer
	sink.Grow(1 << 20)
	w := bufio.NewWriter(&sink)
	record := ReplFrame{Type: ReplFrameRecord, Gen: 3, Index: 9, Payload: bytes.Repeat([]byte{7}, 87)}
	ack := ReplFrame{Type: ReplFrameAck, Gen: 3, Index: 9}
	allocs := testing.AllocsPerRun(200, func() {
		sink.Reset()
		if WriteReplFrame(w, record) != nil || w.Flush() != nil || WriteReplFrame(w, ack) != nil || w.Flush() != nil {
			t.Fatal("write failed")
		}
	})
	if allocs != 0 {
		t.Errorf("a record frame plus an ack frame cost %.1f allocations, want 0", allocs)
	}

	// Less room than a head left in the buffer: the frame must still come
	// out whole and in order.
	sink.Reset()
	var want []byte
	for i := 0; i < 3; i++ {
		if err := WriteReplFrame(w, ReplFrame{Type: ReplFrameRecord, Index: int64(i), Payload: make([]byte, w.Size()-ReplHeadSize-5)}); err != nil {
			t.Fatal(err)
		}
		want, _ = AppendReplFrame(want, ReplFrame{Type: ReplFrameRecord, Index: int64(i), Payload: make([]byte, w.Size()-ReplHeadSize-5)})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.Bytes(), want) {
		t.Error("frames written through a nearly full buffer differ from AppendReplFrame's encoding")
	}
}

// FuzzReplFrame drives the stream decoder with arbitrary bytes: it must
// never panic, and anything it accepts must re-encode to a frame the
// decoder reads back identically.
func FuzzReplFrame(f *testing.F) {
	seed := func(fr ReplFrame) []byte {
		b, err := AppendReplFrame(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(seed(ReplFrame{Type: ReplFrameRecord, Gen: 1, Index: 2, Payload: []byte("abc")}))
	f.Add(seed(ReplFrame{Type: ReplFrameAck, Gen: 9, Index: 1 << 33}))
	f.Add(seed(ReplFrame{Type: ReplFrameOrigin, Gen: 4, Index: 17, Payload: []byte("record")}))
	f.Add(seed(ReplFrame{Type: ReplFrameCover, Gen: 1<<64 - 1, Index: 0, Payload: []byte("127.0.0.1:7171")}))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadReplFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		reenc, err := AppendReplFrame(nil, fr)
		if err != nil {
			t.Fatalf("decoded frame fails to re-encode: %v", err)
		}
		fr2, err := ReadReplFrame(bytes.NewReader(reenc))
		if err != nil {
			t.Fatalf("re-encoded frame fails to decode: %v", err)
		}
		if fr2.Type != fr.Type || fr2.Gen != fr.Gen || fr2.Index != fr.Index || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("round trip mismatch: %+v vs %+v", fr, fr2)
		}
	})
}

func TestOwnerRedirectParse(t *testing.T) {
	msg := ownerRedirectErr(4242, "10.1.2.3:7070")
	oe := ParseOwnerRedirect(msg, "10.9.9.9:7070")
	if oe == nil {
		t.Fatalf("marker not recognized in %q", msg)
	}
	if oe.Session != 4242 {
		t.Fatalf("Session = %d, want 4242", oe.Session)
	}
	if oe.Owner != "10.1.2.3:7070" {
		t.Fatalf("Owner = %q", oe.Owner)
	}
	if oe.Addr != "10.9.9.9:7070" {
		t.Fatalf("Addr = %q", oe.Addr)
	}
	if !IsOwnerRedirect(oe) {
		t.Fatal("IsOwnerRedirect(typed) = false")
	}
	if !IsOwnerRedirect(errors.New("wrapped: " + msg)) {
		t.Fatal("IsOwnerRedirect(marker string) = false")
	}
	if IsOwnerRedirect(errors.New("some other failure")) {
		t.Fatal("IsOwnerRedirect(unrelated) = true")
	}
	if ParseOwnerRedirect("no marker here", "") != nil {
		t.Fatal("parse without marker returned a redirect")
	}
	if !strings.Contains(oe.Hint(), "10.1.2.3:7070") {
		t.Fatalf("Hint does not name the owner: %q", oe.Hint())
	}
}

// Sessions A and B of durableSplit's program, each writing the hidden
// global counter through C.bump: A's add (seq 3) sets counter to 5, then
// B's add (seq 3) sets it to 15 under a newer globals version.
const (
	bumpFn                = "C.bump"
	bumpSetT, bumpCounter = 0, 2 // fragments of C.bump: t = x + 1; counter = counter + t
	sessA, sessB          = 41, 42
)

func bumpCall(session, seq uint64, inst int64, frag int, args ...interp.Value) Request {
	return Request{Op: OpCall, Session: session, Seq: seq, Fn: bumpFn, Inst: inst, Frag: frag, Args: args}
}

// twoWriterJournal runs sessions A and B on a durable primary and returns
// its journal: every record in file order except the add of session
// `held`, which is returned on its own.
func twoWriterJournal(t *testing.T, held uint64) (rest [][]byte, heldAdd []byte) {
	t.Helper()
	_, dd, p := startDurable(t, durableSplit(t), t.TempDir(), DurabilityOptions{SnapshotEvery: -1})
	defer crash(t, p)
	instA := mustRoundTrip(t, dd, Request{Op: OpEnter, Session: sessA, Seq: 1, Fn: bumpFn, Obj: 1}).Inst
	mustRoundTrip(t, dd, bumpCall(sessA, 2, instA, bumpSetT, interp.IntV(4)))
	instB := mustRoundTrip(t, dd, Request{Op: OpEnter, Session: sessB, Seq: 1, Fn: bumpFn, Obj: 2}).Inst
	mustRoundTrip(t, dd, bumpCall(sessB, 2, instB, bumpSetT, interp.IntV(9)))
	mustRoundTrip(t, dd, bumpCall(sessA, 3, instA, bumpCounter)) // counter = 5
	mustRoundTrip(t, dd, bumpCall(sessB, 3, instB, bumpCounter)) // counter = 15, a newer version
	if _, _, err := wal.ScanFile(p.journalPath(p.gen), func(payload []byte) error {
		payload = append([]byte(nil), payload...)
		if session, seq, _ := RecordStamp(payload); session == held && seq == 3 {
			heldAdd = payload
		} else {
			rest = append(rest, payload)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if heldAdd == nil || len(rest) != 5 {
		t.Fatalf("journal holds %d other records and the held add %v, want 5 and one", len(rest), heldAdd != nil)
	}
	return rest, heldAdd
}

// originJournal runs drive against a fresh durable origin and returns the
// records its journal holds afterwards, in file order.
func originJournal(t *testing.T, drive func(dd *Dedup)) [][]byte {
	t.Helper()
	_, dd, p := startDurable(t, durableSplit(t), t.TempDir(), DurabilityOptions{SnapshotEvery: -1})
	defer crash(t, p)
	drive(dd)
	var records [][]byte
	if _, _, err := wal.ScanFile(p.journalPath(p.gen), func(payload []byte) error {
		records = append(records, append([]byte(nil), payload...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return records
}

// durableReplica recovers a replica from dir, wired as ListenAndServe
// wires one, without a listener.
func durableReplica(t *testing.T, dir string) (*TCPServer, *Durability) {
	t.Helper()
	s, dd, p := startDurable(t, durableSplit(t), dir, DurabilityOptions{SnapshotEvery: -1})
	return &TCPServer{Server: s, Persist: p, dedup: dd}, p
}

func globalCounter(t *testing.T, s *Server) interp.Value {
	t.Helper()
	slot, ok := s.reg.Prog.Globals.SlotByName("counter")
	if !ok {
		t.Fatal("no hidden global counter")
	}
	s.globalsMu.Lock()
	defer s.globalsMu.Unlock()
	return s.globals.vals[slot]
}

// TestReplicatedOlderGlobalAfterRestart: in an origin's journal one
// session's write to a hidden global can land ahead of another session's
// older write, because appends run outside the globals lock. A replica
// that applied the newer write, restarted, and is then streamed the older
// one must keep the newer value — its recovery refills the globals
// version guard from its journal.
func TestReplicatedOlderGlobalAfterRestart(t *testing.T) {
	rest, addA := twoWriterJournal(t, sessA)
	dir := t.TempDir()
	ts, p := durableReplica(t, dir)
	for _, payload := range rest {
		if err := ts.ApplyReplicated(payload); err != nil {
			t.Fatal(err)
		}
	}
	crash(t, p)
	ts, p = durableReplica(t, dir)
	defer crash(t, p)
	if err := ts.ApplyReplicated(addA); err != nil {
		t.Fatal(err)
	}
	if got, want := globalCounter(t, ts.Server), interp.IntV(15); !got.Equal(want) {
		t.Errorf("counter = %v after the older write arrived, want B's %v", got, want)
	}
	if got := ts.Server.Stats().Calls; got != 4 {
		t.Errorf("calls = %d, want 4: the older record still counts", got)
	}
	if hw := ts.dedup.HighWater(sessA); hw != 3 {
		t.Errorf("HighWater(A) = %d, want 3", hw)
	}
}

// TestReplicatedOlderGlobalAfterSnapshot is the snapshot form of
// TestReplicatedOlderGlobalAfterRestart: the replica recovers from a
// snapshot cut after the newer write, with no journal record left to
// refill the guard from, so the snapshot must carry it.
func TestReplicatedOlderGlobalAfterSnapshot(t *testing.T) {
	rest, addA := twoWriterJournal(t, sessA)
	dir := t.TempDir()
	ts, p := durableReplica(t, dir)
	for _, payload := range rest {
		if err := ts.ApplyReplicated(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	p.snapWG.Wait()
	crash(t, p)
	ts, p = durableReplica(t, dir)
	defer crash(t, p)
	if rec := p.Recovered(); !rec.SnapshotUsed || rec.Records != 0 {
		t.Fatalf("recovery %+v, want the snapshot and no journal replay", rec)
	}
	if err := ts.ApplyReplicated(addA); err != nil {
		t.Fatal(err)
	}
	if got, want := globalCounter(t, ts.Server), interp.IntV(15); !got.Equal(want) {
		t.Errorf("counter = %v after the older write arrived, want B's %v", got, want)
	}
}

// TestReplicaLiveGlobalWriteRecovers: a replica that executes a write to a
// hidden global itself stamps the version guard, so a streamed write the
// guard then skips is skipped again when the replica recovers its journal
// — live state and recovered state agree.
func TestReplicaLiveGlobalWriteRecovers(t *testing.T) {
	const sessC = 43
	rest, addB := twoWriterJournal(t, sessB)
	dir := t.TempDir()
	ts, p := durableReplica(t, dir)
	for _, payload := range rest {
		if err := ts.ApplyReplicated(payload); err != nil {
			t.Fatal(err)
		}
	}
	instC := mustRoundTrip(t, ts.dedup, Request{Op: OpEnter, Session: sessC, Seq: 1, Fn: bumpFn, Obj: 3}).Inst
	mustRoundTrip(t, ts.dedup, bumpCall(sessC, 2, instC, bumpSetT, interp.IntV(99)))
	mustRoundTrip(t, ts.dedup, bumpCall(sessC, 3, instC, bumpCounter)) // counter = 5 + 100
	if err := ts.ApplyReplicated(addB); err != nil {
		t.Fatal(err)
	}
	live := globalCounter(t, ts.Server)
	crash(t, p)
	ts, p = durableReplica(t, dir)
	defer crash(t, p)
	if got := globalCounter(t, ts.Server); !got.Equal(live) {
		t.Errorf("recovered counter = %v, live replica had %v", got, live)
	}
	if want := interp.IntV(105); !live.Equal(want) {
		t.Errorf("live counter = %v, want the replica's own newer write %v", live, want)
	}
}

// IsOwnerRedirect reports whether err marks a fleet owner redirect.
func IsOwnerRedirect(err error) bool {
	if err == nil {
		return false
	}
	var oe *OwnerRedirectError
	if errors.As(err, &oe) {
		return true
	}
	return strings.Contains(err.Error(), ownerRedirectMsg)
}

// AppendReplFrame encodes f: [type][gen u64][index u64][len u32][payload].
func AppendReplFrame(b []byte, f ReplFrame) ([]byte, error) {
	b, err := appendReplHead(b, f)
	if err != nil {
		return b, err
	}
	return append(b, f.Payload...), nil
}

// TestFailedAdoptionLeavesReplicaEmpty: memory keeps only a base its disk
// adopted. The catch-up import of an origin's state fails because a
// directory occupies the name of the snapshot file adoption writes; the
// replica must still be empty, so the cluster accepts the sender's next
// offer instead of streaming records over a base the disk never received.
// Once the name is free the same payload adopts, and a restart recovers
// it.
func TestFailedAdoptionLeavesReplicaEmpty(t *testing.T) {
	res := durableSplit(t)
	origin := OpenDurable(t, res, t.TempDir(), false)
	if out := origin.Run(res, 100_000_000); out.Err != nil {
		t.Fatal(out.Err)
	}
	payload, err := encodeCut(captureCut(origin.Server, origin.dd))
	if err != nil {
		t.Fatal(err)
	}
	want := origin.State()
	origin.Crash(t)

	dir := t.TempDir()
	ts, p := durableReplica(t, dir)
	blocker := p.snapPath(1)
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := ts.ImportCatchupSnapshot(payload); err == nil {
		t.Fatal("import succeeded although its snapshot file could not be written")
	}
	if !ts.StateEmpty() {
		st := ts.Server.Stats()
		t.Fatalf("failed adoption left Enters %d, Calls %d and %d dedup sessions in memory; the replica must stay empty",
			st.Enters, st.Calls, ts.dedup.Sessions())
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := ts.ImportCatchupSnapshot(payload); err != nil {
		t.Fatalf("retried adoption: %v", err)
	}
	adopted := (&DurableServer{Server: ts.Server, dd: ts.dedup, p: p}).State()
	if adopted != want {
		t.Fatalf("adopted state differs from the origin's:\norigin:\n%s\nadopted:\n%s", want, adopted)
	}
	crash(t, p)
	ts, p = durableReplica(t, dir)
	defer crash(t, p)
	if got := (&DurableServer{Server: ts.Server, dd: ts.dedup, p: p}).State(); got != want {
		t.Fatalf("recovered state differs from the adopted base:\nadopted:\n%s\nrecovered:\n%s", want, got)
	}
}

// TestReplicatedAndLiveSameStampLandOnce races the two ways one
// (session, seq) can reach a durable replica: the mesh echo of a record
// (ApplyReplicated) and a live re-execution of the same request after a
// promotion (RoundTrip). Whichever arrives first lands; the other must
// find the session's slot settled. The execution tallies move once, the
// journal holds one record of the stamp, and the replay cache answers the
// reply.
func TestReplicatedAndLiveSameStampLandOnce(t *testing.T) {
	const session = 51
	var call Request
	var wantResp Response
	records := originJournal(t, func(dd *Dedup) {
		inst := mustRoundTrip(t, dd, Request{Op: OpEnter, Session: session, Seq: 1, Fn: bumpFn, Obj: 1}).Inst
		call = bumpCall(session, 2, inst, bumpSetT, interp.IntV(4))
		wantResp = mustRoundTrip(t, dd, call)
	})
	if len(records) != 2 {
		t.Fatalf("origin journaled %d records, want 2", len(records))
	}

	for _, order := range []string{"replicated first", "live first", "concurrent"} {
		ts, p := durableReplica(t, t.TempDir())
		if err := ts.ApplyReplicated(records[0]); err != nil {
			t.Fatal(err)
		}
		before := ts.Server.Stats()
		apply := func() error { return ts.ApplyReplicated(records[1]) }
		live := func() error {
			resp, err := ts.roundTrip(call)
			if err == nil && resp != wantResp {
				err = fmt.Errorf("live answer %+v, want %+v", resp, wantResp)
			}
			return err
		}
		var errs [2]error
		switch order {
		case "replicated first":
			errs[0], errs[1] = apply(), live()
		case "live first":
			errs[1], errs[0] = live(), apply()
		default:
			var wg sync.WaitGroup
			start := make(chan struct{})
			wg.Add(2)
			go func() { defer wg.Done(); <-start; errs[0] = apply() }()
			go func() { defer wg.Done(); <-start; errs[1] = live() }()
			close(start)
			wg.Wait()
		}
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", order, err)
			}
		}
		if got := ts.Server.Stats(); got.Calls != before.Calls+1 || got.Enters != before.Enters {
			t.Errorf("%s: tallies went from %+v to %+v, want one more call", order, before, got)
		}
		var stamped int
		if _, _, err := wal.ScanFile(p.journalPath(p.gen), func(payload []byte) error {
			if s, seq, _ := RecordStamp(payload); s == session && seq == call.Seq {
				stamped++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if stamped != 1 {
			t.Errorf("%s: journal holds %d records of stamp (%d, %d), want 1", order, stamped, session, call.Seq)
		}
		if resp, err := ts.roundTrip(call); err != nil || resp != wantResp {
			t.Errorf("%s: replayed answer %+v (%v), want %+v from the replay cache", order, resp, err, wantResp)
		}
		if got := ts.Server.Stats().Calls; got != before.Calls+1 {
			t.Errorf("%s: the replay executed again (calls %d)", order, got)
		}
		crash(t, p)
	}
}
