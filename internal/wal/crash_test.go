package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// The crash matrix of the zero-filled layout. A sync journal's file is
// always longer than its log, so what a crash leaves is decided by which
// writes reached the platter, not by where the file ends. Every case here
// builds the on-disk state a crash point would leave — through the sync
// hook (which is told the log end each flush covers) and Abandon (which
// drops the handle the way a killed process does) — and then recovers.
// Nothing depends on timing; the randomized cases replay from their seed.

// SetSyncFunc installs fn in place of the journal's own flush (Append,
// AppendBatch, Sync, Close); end is the log end the flush covers. Passing
// nil restores the real flush. The crash tests use it to record the last
// durable boundary and to inject sync faults.
func (j *Journal) SetSyncFunc(fn func(f *os.File, end int64) error) {
	j.mu.Lock()
	j.syncFn = fn
	j.mu.Unlock()
}

// Abandon drops the file handle without flushing or truncating, leaving
// on disk what a killed process leaves: for a sync journal, the records
// followed by the zero fill.
func (j *Journal) Abandon() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// fileBytes reads the journal file whole.
func fileBytes(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// recoverJournal is boot-time recovery: scan, then open at the valid
// prefix. It returns the recovered records and the reopened journal.
func recoverJournal(t *testing.T, path string) ([][]byte, *Journal) {
	t.Helper()
	var got [][]byte
	validLen, _, err := ScanFile(path, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := Open(path, validLen, true)
	if err != nil {
		t.Fatal(err)
	}
	return got, j
}

func wantRecords(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: record %d is %q, want %q", what, i, got[i], want[i])
		}
	}
}

// TestCrashBetweenZeroFillAndFirstRecord: the process dies after Open
// filled the file but before any record — and, second shape, part-way
// through the fill itself. Both recover as an empty journal that accepts
// appends.
func TestCrashBetweenZeroFillAndFirstRecord(t *testing.T) {
	for _, cut := range []int64{headerSize + preallocChunk, headerSize + 12345, headerSize + 3, headerSize} {
		path := filepath.Join(t.TempDir(), "j.wal")
		j, err := Open(path, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Abandon(); err != nil {
			t.Fatal(err)
		}
		if got := int64(len(fileBytes(t, path))); got != headerSize+preallocChunk {
			t.Fatalf("abandoned fresh journal is %d bytes, want header + one chunk (%d)", got, headerSize+preallocChunk)
		}
		if err := os.Truncate(path, cut); err != nil { // how far the fill got
			t.Fatal(err)
		}
		got, j := recoverJournal(t, path)
		wantRecords(t, fmt.Sprintf("fill cut at %d", cut), got, nil)
		if j.Size() != headerSize {
			t.Fatalf("fill cut at %d: reopened log end %d, want %d", cut, j.Size(), headerSize)
		}
		if err := j.Append([]byte("first")); err != nil {
			t.Fatal(err)
		}
		if err := j.Abandon(); err != nil {
			t.Fatal(err)
		}
		got, j = recoverJournal(t, path)
		wantRecords(t, fmt.Sprintf("append after fill cut at %d", cut), got, [][]byte{[]byte("first")})
		j.Close()
	}
}

// TestCrashTornBatchDoesNotResurrect: a batch is written into the filled
// region and the machine dies before its flush. The platter kept the
// first record and the last, and lost a stretch in the middle (writeback
// is per block, in no particular order) — so an intact record lies beyond
// the tear. Recovered history must stop at the tear; reopening must wipe
// what lies beyond it; and an append exactly as long as the lost record —
// the one that would re-align the stale record behind it — must not bring
// it back.
func TestCrashTornBatchDoesNotResurrect(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		record := func() []byte {
			b := make([]byte, 1+rng.Intn(9000))
			for i := range b {
				b[i] = byte(1 + rng.Intn(255))
			}
			return b
		}
		path := filepath.Join(t.TempDir(), "j.wal")
		j, err := Open(path, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		durable := []([]byte){record(), record()}
		if err := j.AppendBatch(durable); err != nil {
			t.Fatal(err)
		}
		// The doomed batch: written, never flushed.
		j.SetSyncFunc(func(*os.File, int64) error { return nil })
		kept, lost, stale := record(), record(), record()
		lostAt := j.Size() + frameSize + int64(len(kept))
		if err := j.AppendBatch([][]byte{kept, lost, stale}); err != nil {
			t.Fatal(err)
		}
		staleAt := lostAt + frameSize + int64(len(lost))
		if err := j.Abandon(); err != nil {
			t.Fatal(err)
		}
		// Lose a stretch of the middle record: from somewhere in its payload
		// (every other seed: from its frame header) the platter still holds
		// the durable zeros.
		from := lostAt + frameSize + rng.Int63n(int64(len(lost)))
		to := from + 1 + rng.Int63n(staleAt-from)
		if seed%2 == 0 {
			from = lostAt
		}
		writeAtLogEnd(t, path, from, make([]byte, to-from))

		got, j2 := recoverJournal(t, path)
		wantRecords(t, fmt.Sprintf("seed %d: recovered", seed), got, append(durable, kept))
		if j2.Size() != lostAt {
			t.Fatalf("seed %d: reopened log end %d, want the tear at %d", seed, j2.Size(), lostAt)
		}
		if nonzero, err := NonZeroFrom(path, lostAt); err != nil || nonzero != 0 {
			t.Fatalf("seed %d: reopen left %d non-zero bytes beyond the tear (%v)", seed, nonzero, err)
		}
		// Same framed length as the lost record: ends where stale began.
		realign := bytes.Repeat([]byte{0xAB}, len(lost))
		if err := j2.Append(realign); err != nil {
			t.Fatal(err)
		}
		if err := j2.Abandon(); err != nil {
			t.Fatal(err)
		}
		got, j3 := recoverJournal(t, path)
		wantRecords(t, fmt.Sprintf("seed %d: after realigning append", seed), got, append(append(durable, kept), realign))
		j3.Close()
	}
}

// TestCrashAcrossFilledFrontier drives appends over the end of the filled
// region. Each crossing is a top-up (observed), the flush that follows is
// told a log end inside the new fill, and three crash shapes recover:
// after the crossing append's flush; with the crossing append written but
// not flushed and the top-up's length change lost with it; and a clean
// close, which leaves a file of exactly the log's length.
func TestCrashAcrossFilledFrontier(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := Open(path, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	var extends int
	var flushes []int64
	j.Observe(nil, func() { extends++ })
	j.SetSyncFunc(func(f *os.File, end int64) error {
		flushes = append(flushes, end)
		return f.Sync()
	})
	rec := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 100_000) }
	var want [][]byte
	for i := 0; int64(i)*100_000 < preallocChunk; i++ { // 11 records: the last crosses
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec(i))
	}
	if extends != 1 {
		t.Fatalf("%d top-ups crossing one chunk, want 1", extends)
	}
	for i, end := range flushes {
		if wantEnd := int64(headerSize + (i+1)*(frameSize+100_000)); end != wantEnd {
			t.Fatalf("flush %d covered log end %d, want %d", i, end, wantEnd)
		}
	}
	crossedFrom := flushes[len(flushes)-2] // log end before the crossing append

	// Shape 1: killed right after the crossing append was acknowledged.
	if err := j.Abandon(); err != nil {
		t.Fatal(err)
	}
	if got := int64(len(fileBytes(t, path))); got != j.Size()+preallocChunk {
		t.Fatalf("file is %d bytes after the top-up, want log end + one chunk (%d)", got, j.Size()+preallocChunk)
	}
	got, j2 := recoverJournal(t, path)
	wantRecords(t, "after the crossing flush", got, want)

	// Shape 2: the crossing append and its top-up never reached the
	// platter — the file is as long as the first fill made it, and the
	// record's head lies torn against that end.
	j2.Abandon()
	if err := os.Truncate(path, headerSize+preallocChunk); err != nil {
		t.Fatal(err)
	}
	got, j3 := recoverJournal(t, path)
	wantRecords(t, "top-up lost", got, want[:len(want)-1])
	if j3.Size() != crossedFrom {
		t.Fatalf("reopened log end %d, want %d", j3.Size(), crossedFrom)
	}

	// Shape 3: the retry crosses again, and a clean close is a plain file.
	if err := j3.Append(want[len(want)-1]); err != nil {
		t.Fatal(err)
	}
	if err := j3.Close(); err != nil {
		t.Fatal(err)
	}
	if got := int64(len(fileBytes(t, path))); got != j3.Size() {
		t.Fatalf("closed journal is %d bytes, want its log end %d", got, j3.Size())
	}
	wantRecords(t, "after clean close", scanAll(t, path), want)
}

// TestTailScannerAcrossTopUpAndSeal follows a sync journal's writer with
// a live tail: over the zero fill, across a top-up (the file grows under
// the reader), and through the seal (Close truncates the fill away under
// it). Every record arrives once, in order, and the reader ends exactly
// at the log end.
func TestTailScannerAcrossTopUpAndSeal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal-00000000.wal")
	j, err := Open(path, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := OpenTail(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	var extends int
	j.Observe(nil, func() { extends++ })
	next := 0
	drain := func() {
		t.Helper()
		for {
			got, err := tail.Next()
			if err == ErrTailCaughtUp {
				if tail.Offset() != j.Size() {
					t.Fatalf("tail caught up at %d, log ends at %d", tail.Offset(), j.Size())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if want := bytes.Repeat([]byte{byte(next + 1)}, 70_000); !bytes.Equal(got, want) {
				t.Fatalf("record %d diverged (%d bytes, first %#x)", next, len(got), got[0])
			}
			next++
		}
	}
	drain()
	for i := 0; extends < 2; i++ {
		if err := j.Append(bytes.Repeat([]byte{byte(i + 1)}, 70_000)); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			drain()
		}
	}
	if err := j.Close(); err != nil { // the seal: fill truncated away
		t.Fatal(err)
	}
	drain()
	if int64(next) != j.Records() {
		t.Fatalf("tail delivered %d records, writer appended %d", next, j.Records())
	}
	if _, err := tail.Next(); err != ErrTailCaughtUp {
		t.Fatalf("sealed journal: got %v, want ErrTailCaughtUp", err)
	}
}
