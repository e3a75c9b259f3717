package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// Offset is the byte offset of the next unread record: after a caught-up
// answer, the log end (a valid restart point for OpenTail).
func (t *TailScanner) Offset() int64 { return t.off }

// bothLayouts runs fn against a plain journal (the file ends at the log
// end) and a sync one (zero fill ahead of it): a tail reader must behave
// the same whether "nothing here yet" reads as end-of-file or as zeros.
func bothLayouts(t *testing.T, fn func(t *testing.T, j *Journal, path string)) {
	for _, layout := range []struct {
		name string
		sync bool
	}{{"eof tail", false}, {"zero tail", true}} {
		t.Run(layout.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal-00000000.wal")
			j, err := Open(path, 0, layout.sync)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { j.Close() })
			fn(t, j, path)
		})
	}
}

// writeAtLogEnd plants raw bytes at off the way an in-flight append of
// the journal's own would: the log end is not the end of the file when
// the journal is zero-filled ahead, so O_APPEND would miss it.
func writeAtLogEnd(t *testing.T, path string, off int64, chunks ...[]byte) int64 {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, b := range chunks {
		if _, err := f.WriteAt(b, off); err != nil {
			t.Fatal(err)
		}
		off += int64(len(b))
	}
	return off
}

func frameFor(payload []byte) []byte {
	var frame [frameSize]byte
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return frame[:]
}

func TestTailScannerFollowsAppends(t *testing.T) {
	bothLayouts(t, func(t *testing.T, j *Journal, path string) {
		tail, err := OpenTail(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer tail.Close()

		if _, err := tail.Next(); err != ErrTailCaughtUp {
			t.Fatalf("empty journal: got %v, want ErrTailCaughtUp", err)
		}
		recs := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
		for _, r := range recs {
			if err := j.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		for i, want := range recs {
			got, err := tail.Next()
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			if string(got) != string(want) {
				t.Fatalf("record %d: got %q, want %q", i, got, want)
			}
		}
		if _, err := tail.Next(); err != ErrTailCaughtUp {
			t.Fatalf("after drain: got %v, want ErrTailCaughtUp", err)
		}

		// A restart from a saved offset resumes exactly where it left off.
		off := tail.Offset()
		if err := j.Append([]byte("four")); err != nil {
			t.Fatal(err)
		}
		tail2, err := OpenTail(path, off)
		if err != nil {
			t.Fatal(err)
		}
		defer tail2.Close()
		got, err := tail2.Next()
		if err != nil || string(got) != "four" {
			t.Fatalf("resumed read: got %q, %v", got, err)
		}
	})
}

// A torn frame at the log end — the appender's write caught mid-flight —
// must read as "caught up", not as an error.
func TestTailScannerTornTail(t *testing.T) {
	bothLayouts(t, func(t *testing.T, j *Journal, path string) {
		if err := j.Append([]byte("whole")); err != nil {
			t.Fatal(err)
		}
		// Simulate a torn append: a frame header promising more payload
		// bytes than have landed (end-of-file or zeros follow it).
		var frame [frameSize]byte
		binary.LittleEndian.PutUint32(frame[0:4], 100)
		writeAtLogEnd(t, path, j.Size(), frame[:])

		tail, err := OpenTail(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer tail.Close()
		if got, err := tail.Next(); err != nil || string(got) != "whole" {
			t.Fatalf("first record: got %q, %v", got, err)
		}
		if _, err := tail.Next(); err != ErrTailCaughtUp {
			t.Fatalf("torn tail: got %v, want ErrTailCaughtUp", err)
		}
	})
}

// TestTailScannerTornAcrossRotation pins the generation-boundary seam of
// the replication pump: a record whose append is torn (partially visible)
// when the journal rotates into a snapshot must be neither dropped nor
// double-streamed. The pump's protocol — rotation commits only after
// every append to the old generation completes, and the scanner makes one
// more pass after observing the rotation — is only sound if the torn read
// never advances the offset and the completed record is then delivered
// exactly once, including from a scanner re-opened at the saved offset
// (a pump that reconnected mid-rotation).
//
// Ported to the zero-filled layout: the torn bytes are planted at the log
// end with WriteAt (O_APPEND lands past the zero fill), and "no record
// after the boundary one" is a zero frame there, not end-of-file — which
// the scanner used to deliver as an endless run of empty records.
func TestTailScannerTornAcrossRotation(t *testing.T) {
	bothLayouts(t, func(t *testing.T, j *Journal, path string) {
		if err := j.Append([]byte("before")); err != nil {
			t.Fatal(err)
		}
		tail, err := OpenTail(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer tail.Close()
		if got, err := tail.Next(); err != nil || string(got) != "before" {
			t.Fatalf("first record: got %q, %v", got, err)
		}

		// Tear the boundary record: frame header and half the payload are
		// visible, the rest of the write has not landed yet.
		payload := []byte("boundary-record")
		mid := writeAtLogEnd(t, path, j.Size(), frameFor(payload), payload[:7])

		// The torn record is "not yet", however many times it is retried,
		// and retries never advance the offset — advancing here is exactly
		// the bug that would drop the record on the post-rotation pass.
		if _, err := tail.Next(); err != ErrTailCaughtUp {
			t.Fatalf("torn record: got %v, want ErrTailCaughtUp", err)
		}
		saved := tail.Offset()
		if _, err := tail.Next(); err != ErrTailCaughtUp {
			t.Fatalf("torn record retry: got %v, want ErrTailCaughtUp", err)
		}
		if got := tail.Offset(); got != saved {
			t.Fatalf("caught-up read advanced the offset %d -> %d", saved, got)
		}

		// Rotation seals the generation only after the append's write(2)
		// returns, so by the scanner's sealed pass the record is whole.
		writeAtLogEnd(t, path, mid, payload[7:])

		// The live scanner delivers the record exactly once...
		got, err := tail.Next()
		if err != nil || string(got) != string(payload) {
			t.Fatalf("sealed pass: got %q, %v", got, err)
		}
		if _, err := tail.Next(); err != ErrTailCaughtUp {
			t.Fatalf("after boundary record: got %v, want ErrTailCaughtUp", err)
		}
		// ...and so does a scanner restarted from the offset saved while
		// the record was torn — no duplicate, no gap.
		tail2, err := OpenTail(path, saved)
		if err != nil {
			t.Fatal(err)
		}
		defer tail2.Close()
		got2, err := tail2.Next()
		if err != nil || string(got2) != string(payload) {
			t.Fatalf("restarted scanner: got %q, %v", got2, err)
		}
		if _, err := tail2.Next(); err != ErrTailCaughtUp {
			t.Fatalf("restarted scanner drained: got %v, want ErrTailCaughtUp", err)
		}
		if tail2.Offset() != tail.Offset() {
			t.Fatalf("offsets diverged: restarted %d vs live %d", tail2.Offset(), tail.Offset())
		}
	})
}

// TestTailScannerCRCTornThenCompleted covers the other torn-write shape:
// the frame claims its full length and that many bytes are readable, but
// the payload bytes are not all there yet. Over a zero-filled tail this is
// the common shape, not the rare one — the bytes a frame promises are
// always readable, as zeros, before the write that fills them lands. A CRC
// mismatch on a full-length frame at the tail must read as "not yet" — and
// the record must arrive intact, once, when the write settles.
func TestTailScannerCRCTornThenCompleted(t *testing.T) {
	bothLayouts(t, func(t *testing.T, j *Journal, path string) {
		if err := j.Append([]byte("prefix")); err != nil {
			t.Fatal(err)
		}
		payload := []byte("settles-later")
		base := j.Size()
		// Full-length frame, but the payload's second half is still zeros.
		garbled := make([]byte, len(payload))
		copy(garbled, payload[:6])
		writeAtLogEnd(t, path, base, frameFor(payload), garbled)

		tail, err := OpenTail(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer tail.Close()
		if got, err := tail.Next(); err != nil || string(got) != "prefix" {
			t.Fatalf("first record: got %q, %v", got, err)
		}
		if _, err := tail.Next(); err != ErrTailCaughtUp {
			t.Fatalf("garbled tail frame: got %v, want ErrTailCaughtUp", err)
		}

		// The write settles: the true payload bytes land in place.
		writeAtLogEnd(t, path, base+frameSize, payload)
		got, err := tail.Next()
		if err != nil || string(got) != string(payload) {
			t.Fatalf("settled record: got %q, %v", got, err)
		}
		if _, err := tail.Next(); err != ErrTailCaughtUp {
			t.Fatalf("after settled record: got %v, want ErrTailCaughtUp", err)
		}
	})
}

// A frame whose length field exceeds MaxRecord is corrupt history, and the
// tail must read it the way recovery does: as the log end. A live tail that
// errored there instead would drop its stream and redial into the same
// error forever; one that waits resumes exactly where recovery truncates.
func TestTailScannerOversizedLengthIsLogEnd(t *testing.T) {
	bothLayouts(t, func(t *testing.T, j *Journal, path string) {
		if err := j.Append([]byte("intact")); err != nil {
			t.Fatal(err)
		}
		var frame [frameSize]byte
		binary.LittleEndian.PutUint32(frame[0:4], 0xffffffff)
		writeAtLogEnd(t, path, j.Size(), frame[:], []byte("trailing"))

		tail, err := OpenTail(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer tail.Close()
		if got, err := tail.Next(); err != nil || string(got) != "intact" {
			t.Fatalf("first record: got %q, %v", got, err)
		}
		for range 2 {
			if _, err := tail.Next(); err != ErrTailCaughtUp {
				t.Fatalf("oversized frame: got %v, want ErrTailCaughtUp", err)
			}
		}
		validLen, n, err := ScanFile(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 || tail.Offset() != validLen {
			t.Fatalf("tail stopped at %d, recovery at %d with %d records; want the same offset and 1 record",
				tail.Offset(), validLen, n)
		}
	})
}

// countReads makes tail count the reads it issues against its file.
func countReads(tail *TailScanner) *int {
	c := &countingFile{ReaderAt: tail.f, Closer: tail.f}
	tail.f = c
	return &c.reads
}

type countingFile struct {
	io.ReaderAt
	io.Closer
	reads int
}

func (c *countingFile) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	return c.ReaderAt.ReadAt(p, off)
}

// checkRestartPoint takes a scanner that has read everything appended so
// far and checks that its offset is the log end and a valid place to open
// another scanner: that one sees nothing, then exactly the next append —
// and so does the scanner that kept running.
func checkRestartPoint(t *testing.T, j *Journal, path string, tail *TailScanner) {
	t.Helper()
	if _, err := tail.Next(); err != ErrTailCaughtUp {
		t.Fatalf("drained scanner: got %v, want ErrTailCaughtUp", err)
	}
	if got, want := tail.Offset(), j.Size(); got != want {
		t.Fatalf("offset after drain = %d, log end = %d", got, want)
	}
	restarted, err := OpenTail(path, tail.Offset())
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if _, err := restarted.Next(); err != ErrTailCaughtUp {
		t.Fatalf("restart at the drained offset: got %v, want ErrTailCaughtUp", err)
	}
	if err := j.Append([]byte("after-restart")); err != nil {
		t.Fatal(err)
	}
	for _, sc := range []*TailScanner{restarted, tail} {
		if got, err := sc.Next(); err != nil || string(got) != "after-restart" {
			t.Fatalf("record appended after the drain: got %q, %v", got, err)
		}
	}
}

// sized returns n records of size bytes each, every one distinct.
func sized(n, size int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = bytes.Repeat([]byte{byte('a' + i%26)}, size)
		binary.LittleEndian.PutUint32(recs[i], uint32(i))
	}
	return recs
}

// The read-ahead window against the record shapes that do not fit it
// neatly: a record larger than the window, records laid so that one
// straddles the window's end, many records inside one window, and (on the
// zero-filled layout) a window that is nothing but fill.
func TestTailScannerWindow(t *testing.T) {
	cases := []struct {
		name string
		recs [][]byte
		// reads is how many reads draining recs takes; 0 = not pinned.
		reads int
	}{
		{"larger than the window", append(sized(1, 3*tailWindow+5), sized(2, 40)...), 0},
		{"straddling the window's end", sized(12, tailWindow/8-3), 0},
		{"exactly filling the window", sized(8, tailWindow/8-frameSize), 0},
		{"many records in one fill", sized(100, 20), 1},
		{"nothing but fill", nil, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bothLayouts(t, func(t *testing.T, j *Journal, path string) {
				for _, r := range tc.recs {
					if err := j.Append(r); err != nil {
						t.Fatal(err)
					}
				}
				tail, err := OpenTail(path, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer tail.Close()
				reads := countReads(tail)
				for i, w := range tc.recs {
					if got, err := tail.Next(); err != nil || !bytes.Equal(got, w) {
						t.Fatalf("record %d: got %d bytes, %v; want %d bytes", i, len(got), err, len(w))
					}
				}
				if _, err := tail.Next(); err != ErrTailCaughtUp {
					t.Fatalf("after %d records: got %v, want ErrTailCaughtUp", len(tc.recs), err)
				}
				if tc.reads != 0 && *reads != tc.reads {
					t.Errorf("%d records and the caught-up answer took %d reads, want %d", len(tc.recs), *reads, tc.reads)
				}
				checkRestartPoint(t, j, path, tail)
			})
		})
	}
}

// TestTailScannerOneReadPerWakeup pins what the replication pump pays in
// the caught-up steady state: woken by an append, it reads the record and
// learns that nothing follows it from one and the same read.
func TestTailScannerOneReadPerWakeup(t *testing.T) {
	bothLayouts(t, func(t *testing.T, j *Journal, path string) {
		tail, err := OpenTail(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer tail.Close()
		if _, err := tail.Next(); err != ErrTailCaughtUp {
			t.Fatalf("empty journal: got %v, want ErrTailCaughtUp", err)
		}
		reads := countReads(tail)
		const wakeups = 50
		for i, rec := range sized(wakeups, 87) {
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
			if got, err := tail.Next(); err != nil || !bytes.Equal(got, rec) {
				t.Fatalf("wake-up %d: got %d bytes, %v", i, len(got), err)
			}
			if _, err := tail.Next(); err != ErrTailCaughtUp {
				t.Fatalf("wake-up %d: got %v after the record, want ErrTailCaughtUp", i, err)
			}
		}
		if *reads != wakeups {
			t.Errorf("%d wake-ups took %d reads, want one each", wakeups, *reads)
		}
	})
}

func TestOffsetTrackerMinAndWait(t *testing.T) {
	tr := NewOffsetTracker()
	if _, n := tr.Min(); n != 0 {
		t.Fatalf("empty tracker has %d followers", n)
	}
	// No followers: waits return immediately.
	if n, _ := tr.WaitForTimeout(Position{Gen: 5, Records: 5}, 0); n != 0 {
		t.Fatalf("WaitFor on empty tracker returned %d", n)
	}

	tr.RegisterAt("a", Position{})
	tr.RegisterAt("b", Position{})
	tr.Ack("a", Position{Gen: 0, Records: 10})
	tr.Ack("b", Position{Gen: 0, Records: 4})
	min, n := tr.Min()
	if n != 2 || min != (Position{Gen: 0, Records: 4}) {
		t.Fatalf("Min = %+v/%d", min, n)
	}
	// Acks are monotone: a stale ack cannot move a follower backwards.
	tr.Ack("a", Position{Gen: 0, Records: 3})
	if got := tr.Acked("a"); got != (Position{Gen: 0, Records: 10}) {
		t.Fatalf("stale ack regressed position to %+v", got)
	}
	// Generation bumps order above any record count.
	tr.Ack("b", Position{Gen: 1, Records: 0})
	if min, _ := tr.Min(); min != (Position{Gen: 0, Records: 10}) {
		t.Fatalf("cross-gen Min = %+v", min)
	}

	// A waiter blocks until the slowest follower covers the target.
	target := Position{Gen: 1, Records: 2}
	released := make(chan int, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		n, _ := tr.WaitForTimeout(target, 0)
		released <- n
	}()
	select {
	case <-released:
		t.Fatal("WaitFor returned before target was covered")
	case <-time.After(20 * time.Millisecond):
	}
	tr.Ack("a", target)
	tr.Ack("b", target)
	wg.Wait()
	if n := <-released; n != 2 {
		t.Fatalf("WaitFor released with %d followers", n)
	}
}

// Dropping a follower must release waiters stuck on it — a dead follower
// cannot be allowed to wedge the request path.
func TestOffsetTrackerDropReleasesWaiters(t *testing.T) {
	tr := NewOffsetTracker()
	tr.RegisterAt("fast", Position{})
	tr.RegisterAt("dead", Position{})
	target := Position{Gen: 0, Records: 1}
	tr.Ack("fast", target)
	done := make(chan int, 1)
	go func() { n, _ := tr.WaitForTimeout(target, 0); done <- n }()
	select {
	case <-done:
		t.Fatal("WaitFor returned while the dead follower lagged")
	case <-time.After(20 * time.Millisecond):
	}
	tr.Drop("dead")
	select {
	case n := <-done:
		if n != 1 {
			t.Fatalf("released with %d followers, want 1", n)
		}
	case <-time.After(time.Second):
		t.Fatal("Drop did not release the waiter")
	}
}

func TestOffsetTrackerWaitTimeout(t *testing.T) {
	tr := NewOffsetTracker()
	tr.RegisterAt("slow", Position{})
	start := time.Now()
	n, ok := tr.WaitForTimeout(Position{Gen: 0, Records: 1}, 30*time.Millisecond)
	if ok {
		t.Fatal("timed-out wait reported success")
	}
	if n != 1 {
		t.Fatalf("follower count = %d, want 1", n)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout vastly overshot")
	}
	// Covered target: success well before the timeout.
	tr.Ack("slow", Position{Gen: 0, Records: 1})
	if _, ok := tr.WaitForTimeout(Position{Gen: 0, Records: 1}, time.Minute); !ok {
		t.Fatal("covered target reported timeout")
	}
}
