package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func appendAll(t *testing.T, path string, sync bool, recs ...[]byte) {
	t.Helper()
	validLen, _, err := ScanFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	j, err := Open(path, validLen, sync)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

func scanAll(t *testing.T, path string) [][]byte {
	t.Helper()
	var got [][]byte
	if _, _, err := ScanFile(path, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestJournalRoundTrip appends through a sync journal (zero fill ahead of
// the log end) and a plain one alike. It used to round-trip an empty
// record; an empty record's frame is eight zero bytes, which is what the
// log end looks like, so Append now refuses it and the test pins that.
func TestJournalRoundTrip(t *testing.T) {
	for _, sync := range []bool{true, false} {
		path := filepath.Join(t.TempDir(), "j.wal")
		want := [][]byte{[]byte("one"), {0}, []byte("three\x00with\xffbytes"), bytes.Repeat([]byte("x"), 10_000)}
		appendAll(t, path, sync, want...)

		got := scanAll(t, path)
		if len(got) != len(want) {
			t.Fatalf("sync=%v: recovered %d records, want %d", sync, len(got), len(want))
		}
		wantLen := int64(headerSize)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("sync=%v: record %d: got %q want %q", sync, i, got[i], want[i])
			}
			wantLen += frameSize + int64(len(want[i]))
		}
		// A cleanly closed journal is a plain run of records again.
		if info, err := os.Stat(path); err != nil || info.Size() != wantLen {
			t.Errorf("sync=%v: closed journal is %d bytes (%v), want its log end %d", sync, info.Size(), err, wantLen)
		}
	}
}

// TestEmptyRecordRefused: [len=0][crc32("")=0] is an all-zero frame, so an
// empty record cannot be told from the end of the log. Append and
// AppendBatch refuse it before a byte reaches the file, and both readers
// stop at such a frame even when an intact record follows it.
func TestEmptyRecordRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := Open(path, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(nil); err == nil {
		t.Error("empty record accepted by Append")
	}
	if err := j.AppendBatch([][]byte{[]byte("ok"), {}}); err == nil {
		t.Error("empty record accepted by AppendBatch")
	}
	if j.Records() != 0 || j.Size() != headerSize {
		t.Errorf("refused appends advanced the journal to %d records, %d bytes", j.Records(), j.Size())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fuzzJournal([]byte("kept"), nil, []byte("beyond")), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := scanAll(t, path); len(got) != 1 || string(got[0]) != "kept" {
		t.Errorf("scan across a zero frame: %q, want only the record before it", got)
	}
	tail, err := OpenTail(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	if got, err := tail.Next(); err != nil || string(got) != "kept" {
		t.Fatalf("tail first record: %q, %v", got, err)
	}
	for i := 0; i < 3; i++ {
		if _, err := tail.Next(); err != ErrTailCaughtUp {
			t.Fatalf("tail at a zero frame: %v, want ErrTailCaughtUp", err)
		}
	}
}

func TestJournalReopenAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	appendAll(t, path, false, []byte("a"), []byte("b"))
	appendAll(t, path, false, []byte("c"))
	got := scanAll(t, path)
	if len(got) != 3 || string(got[2]) != "c" {
		t.Fatalf("reopen lost records: %q", got)
	}
}

// TestJournalTruncatedTail pins the crash shape: a torn final record is
// dropped cleanly and appends after recovery extend the valid prefix.
func TestJournalTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	appendAll(t, path, false, []byte("keep1"), []byte("keep2"), []byte("torn-away"))

	// Tear the last record at every possible byte boundary.
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastLen := frameSize + len("torn-away")
	for cut := 1; cut <= lastLen; cut++ {
		if err := os.WriteFile(path, full[:len(full)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		validLen, n, err := ScanFile(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n != 2 {
			t.Fatalf("cut %d: recovered %d records, want 2", cut, n)
		}
		if validLen != int64(len(full)-lastLen) {
			t.Fatalf("cut %d: validLen %d, want %d", cut, validLen, len(full)-lastLen)
		}
	}

	// Recovery then append: the torn tail must be gone for good.
	appendAll(t, path, false, []byte("after"))
	got := scanAll(t, path)
	if len(got) != 3 || string(got[0]) != "keep1" || string(got[2]) != "after" {
		t.Fatalf("post-recovery journal: %q", got)
	}
}

// TestJournalBitFlip pins corruption detection: flipping any single byte
// of a record makes recovery stop at (not crash on) that record.
func TestJournalBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	appendAll(t, path, false, []byte("first"), []byte("second"), []byte("third"))
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second record's payload.
	secondPayload := headerSize + frameSize + len("first") + frameSize
	mut := append([]byte(nil), full...)
	mut[secondPayload] ^= 0x40
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	validLen, n, err := ScanFile(path, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || len(got) != 1 || string(got[0]) != "first" {
		t.Fatalf("scan past a corrupt record: n=%d got=%q", n, got)
	}
	if validLen != int64(headerSize+frameSize+len("first")) {
		t.Errorf("validLen %d", validLen)
	}
}

// TestJournalBadHeader: a file whose header does not read is an empty
// journal only while nothing but zeros follows where the header ends (a
// crash between creating the file and writing the header); with bytes
// that could be records behind it, it is damaged and left as it is.
func TestJournalBadHeader(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string][]byte{
		"short":       []byte("SLW"),
		"zero filled": append([]byte("SLXAL\x01\x00\x00"), make([]byte, 4096)...),
	} {
		path := filepath.Join(dir, name+".wal")
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		validLen, n, err := ScanFile(path, nil)
		if err != nil || validLen != 0 || n != 0 {
			t.Fatalf("%s header: validLen=%d n=%d err=%v, want an empty journal", name, validLen, n, err)
		}
		// Open must rewrite it into a fresh journal.
		appendAll(t, path, false, []byte("fresh"))
		if got := scanAll(t, path); len(got) != 1 || string(got[0]) != "fresh" {
			t.Fatalf("%s header: reinitialized journal: %q", name, got)
		}
	}

	path := filepath.Join(dir, "j.wal")
	garbage := []byte("definitely not a journal header")
	if err := os.WriteFile(path, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := ScanFile(path, nil)
	var damaged *DamagedError
	if !errors.As(err, &damaged) {
		t.Fatalf("bad header over %d bytes scanned with err=%v, want a *DamagedError", len(garbage), err)
	}
	if *damaged != (DamagedError{Path: path, Size: int64(len(garbage)), Offset: 0}) {
		t.Errorf("damage reported as %+v", *damaged)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, garbage) {
		t.Errorf("scanning a damaged journal changed it: %q (%v)", got, err)
	}
}

func TestJournalOversizeRecordRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := Open(path, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(make([]byte, MaxRecord+1)); err == nil {
		t.Error("oversize record accepted")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.snap")
	if got, err := ReadSnapshot(path); err != nil || got != nil {
		t.Fatalf("missing snapshot: %q %v", got, err)
	}
	payload := []byte("state\x00blob")
	if err := WriteSnapshot(path, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(path)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("snapshot round trip: %q %v", got, err)
	}
	// Replacement is atomic: a second write swaps content wholesale.
	if err := WriteSnapshot(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := ReadSnapshot(path); string(got) != "v2" {
		t.Fatalf("snapshot not replaced: %q", got)
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.snap")
	if err := WriteSnapshot(path, []byte("important state")); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string][]byte{
		"truncated": full[:len(full)-3],
		"bitflip":   flipLastByte(full),
		"badmagic":  append([]byte("XX"), full[2:]...),
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshot(p); err == nil {
			t.Errorf("%s snapshot accepted", name)
		}
	}
}

func flipLastByte(b []byte) []byte {
	m := append([]byte(nil), b...)
	m[len(m)-1] ^= 0x01
	return m
}

// TestJournalManyRecords is a volume check: a few thousand variably sized
// records survive a scan byte-for-byte.
func TestJournalManyRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	var want [][]byte
	for i := 0; i < 3000; i++ {
		want = append(want, []byte(fmt.Sprintf("record-%d-%s", i, bytes.Repeat([]byte("p"), i%97))))
	}
	appendAll(t, path, false, want...)
	got := scanAll(t, path)
	if len(got) != len(want) {
		t.Fatalf("recovered %d of %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d diverged", i)
		}
	}
}

// TestAppendBatchCoalesces pins the group-commit primitive: a batch of
// records lands as one coalesced write that scans back identically to
// the same records appended one by one, with size/record accounting and
// a single flush (observed through the sync hook, which is told the log
// end it covers) for the whole batch. The batch used to carry an empty
// record; see TestEmptyRecordRefused for why it no longer can.
func TestAppendBatchCoalesces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := Open(path, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	var syncs int
	var flushedTo int64
	j.SetSyncFunc(func(f *os.File, end int64) error {
		syncs++
		flushedTo = end
		return f.Sync()
	})
	batch := [][]byte{[]byte("alpha"), {0}, bytes.Repeat([]byte("b"), 5000), []byte("tail")}
	if err := j.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if syncs != 1 {
		t.Errorf("batch issued %d fsyncs, want 1", syncs)
	}
	if flushedTo != j.Size() {
		t.Errorf("flush covered log end %d, journal ends at %d", flushedTo, j.Size())
	}
	if got := j.Records(); got != int64(len(batch)) {
		t.Errorf("Records() = %d, want %d", got, len(batch))
	}
	wantSize := int64(headerSize)
	for _, p := range batch {
		wantSize += frameSize + int64(len(p))
	}
	if got := j.Size(); got != wantSize {
		t.Errorf("Size() = %d, want %d", got, wantSize)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, path)
	if len(got) != len(batch) {
		t.Fatalf("scanned %d records, want %d", len(got), len(batch))
	}
	for i := range batch {
		if !bytes.Equal(got[i], batch[i]) {
			t.Errorf("record %d: got %q want %q", i, got[i], batch[i])
		}
	}
}

// TestAppendBatchOversizeRefused: one oversized record fails the whole
// batch before any bytes reach the file.
func TestAppendBatchOversizeRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := Open(path, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	huge := make([]byte, MaxRecord+1)
	if err := j.AppendBatch([][]byte{[]byte("ok"), huge}); err == nil {
		t.Fatal("oversized batch record accepted")
	}
	if got := j.Records(); got != 0 {
		t.Errorf("failed batch advanced record count to %d", got)
	}
	if got := scanAll(t, path); len(got) != 0 {
		t.Errorf("failed batch left %d records on disk", len(got))
	}
}

// TestDirSyncRefusalSurfaced pins the degradation report: a refused
// directory fsync flips the process-wide flag and invokes the handler
// exactly once, instead of being silently swallowed.
func TestDirSyncRefusalSurfaced(t *testing.T) {
	var calls int
	var gotDir string
	OnDirSyncUnsupported(func(dir string, err error) {
		calls++
		gotDir = dir
	})
	defer OnDirSyncUnsupported(nil)
	reportDirSyncRefused("/data/x", fmt.Errorf("EINVAL"))
	reportDirSyncRefused("/data/y", fmt.Errorf("EINVAL"))
	if !DirSyncUnsupported() {
		t.Error("DirSyncUnsupported() = false after a refusal")
	}
	if calls != 1 {
		t.Errorf("handler invoked %d times, want once", calls)
	}
	if calls == 1 && gotDir != "/data/x" {
		t.Errorf("handler saw dir %q, want /data/x", gotDir)
	}
}

// Sync flushes the journal to stable storage regardless of the per-append
// policy (used at graceful shutdown).
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	return j.syncLocked(j.size)
}

// Records reports how many records this handle has appended.
func (j *Journal) Records() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}
