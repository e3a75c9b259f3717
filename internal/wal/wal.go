// Package wal implements the durability primitives of the hidden runtime:
// an append-only, CRC-framed write-ahead journal and atomically written
// snapshot files. The hidden server (package hrt) journals every applied
// mutating request and periodically snapshots its state, so a hiddend
// process killed mid-run can be restarted and resume every live session
// with exactly-once semantics intact.
//
// The package is deliberately generic: records and snapshots are opaque
// byte payloads (package hrt owns their encoding), and this layer owns
// only framing, corruption detection, fsync policy, and crash-safe file
// replacement. Everything is stdlib-only.
//
// Failure model. Two distinct failure classes matter:
//
//   - Process death (SIGKILL, panic): bytes already handed to write(2) are
//     safe in the OS page cache, so the journal performs one write per
//     record (or per batch) with no user-space buffering. Records never
//     straddle a partial user-space flush.
//   - Machine death (power loss, kernel crash): only flushed bytes are
//     safe. Opening the journal with sync=true flushes after every append,
//     trading throughput for zero-loss durability; sync=false accepts
//     that the tail since the last Sync may vanish.
//
// The log end is a property of the records, not of the file length. A
// sync journal keeps its file filled with written zeros one chunk
// (preallocChunk) ahead of the log end, so a commit overwrites bytes the
// file already has and fdatasync has only those data blocks to flush —
// appending at end-of-file instead makes every commit change the inode's
// length, which the filesystem must journal before the flush returns. A
// frame whose length field is zero is therefore the end of the log;
// Append refuses empty payloads so no record can look like one. When a
// write would cross the filled frontier the fill is topped up first; that
// changes the length, and fdatasync does flush a length change a later
// read depends on, so the record is covered all the same. Close truncates
// the file back to the log end: a cleanly closed journal is a plain run
// of records.
//
// One decoder reads frames back: TailScanner (tail.go). The replication
// pump follows a live journal with it, and recovery's ScanFile is a loop
// over one opened at the first record. In both failure classes recovery
// therefore stops cleanly where a live tail would wait — at the first
// frame that is zero, truncated, oversized or fails its CRC — and the
// valid prefix is the recovered history. Open truncates the file there
// and only then re-fills it, durably, before it accepts an append: an
// intact record stranded beyond a torn one is wiped, so no later append
// that happens to end where it begins can splice it back into history.
package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// journalMagic opens every journal file; snapMagic opens every snapshot.
// The trailing bytes version the format.
var (
	journalMagic = []byte("SLWAL\x01\x00\x00")
	snapMagic    = []byte("SLSNAP\x01\x00")
)

const (
	// headerSize is the journal file header length (the magic).
	headerSize = 8
	// frameSize is the per-record frame overhead: u32 length + u32 CRC.
	frameSize = 8
	// MaxRecord bounds one record's payload so a corrupt length field can
	// never make recovery over-allocate.
	MaxRecord = 1 << 26
	// preallocChunk is how far ahead of the log end a sync journal keeps
	// its file zero-filled: about 12 000 of the hidden runtime's records
	// between top-ups, and 1 MiB for Open to write and flush.
	preallocChunk = 1 << 20
)

// zeroPage is the source of every zero-fill write. Its size is the size
// of those writes on purpose: filling a chunk with one 1 MiB write leaves
// the page cache holding the region in large folios, and every commit
// into it then flushed ≈ 20 µs slower on ext4 (EXPERIMENTS.md, Durability
// overhead); 64 KiB and 4 KiB writes measured alike.
var zeroPage [64 << 10]byte

// Journal is an append-only record log. Appends are serialized; each
// record is framed as [len u32][crc32 u32][payload] and handed to the
// kernel in a single write at the log end, so a killed process never
// leaves a half-buffered record behind (a torn write at the very tail is
// caught by the CRC on recovery).
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	sync bool
	// size is the log end: header plus every framed record. filled is the
	// file length a sync journal has zero-filled up to (filled ≥ size);
	// a journal without sync never fills, and its file ends at size.
	size    int64
	filled  int64
	records int64
	scratch []byte
	// syncFn, when set, replaces the flush of Append, AppendBatch, Sync
	// and Close. It exists for crash testing: a
	// test observes exactly which log end each flush made durable, or
	// suppresses the flush to simulate a machine dying between a batch's
	// coalesced write and its flush.
	syncFn func(f *os.File, end int64) error
	// synced and extended, when set, observe the commit path: the time
	// each flush took, and each zero-fill top-up an append had to make.
	synced   func(took time.Duration)
	extended func()
}

// SetSyncFunc installs fn in place of the journal's own flush (Append,
// AppendBatch, Sync, Close); end is the log end the flush covers. Passing
// nil restores the real flush. Test hook: the crash tests use it to record
// the last durable boundary and to inject sync faults.
func (j *Journal) SetSyncFunc(fn func(f *os.File, end int64) error) {
	j.mu.Lock()
	j.syncFn = fn
	j.mu.Unlock()
}

// Observe installs callbacks for the commit path of a sync journal:
// synced receives the duration of every flush an append waits for,
// extended runs after every top-up of the zero-filled region made inside
// an append (Open's initial fill is not one). Either may be nil. They run
// with the journal locked and must not call back into it.
func (j *Journal) Observe(synced func(took time.Duration), extended func()) {
	j.mu.Lock()
	j.synced, j.extended = synced, extended
	j.mu.Unlock()
}

// syncLocked flushes the file's data up to the log end `end`, through the
// hook when one is set. Caller holds j.mu.
func (j *Journal) syncLocked(end int64) error {
	if j.syncFn != nil {
		return j.syncFn(j.f, end)
	}
	return datasync(j.f)
}

// fillLocked extends the zero-filled region to one chunk past end. The
// zeros are written, not fallocated: an allocated-but-unwritten extent
// still costs a metadata update when a record first lands in it.
func (j *Journal) fillLocked(end int64) error {
	for target := end + preallocChunk; j.filled < target; {
		n := min(target-j.filled, int64(len(zeroPage)))
		if _, err := j.f.WriteAt(zeroPage[:n], j.filled); err != nil {
			return err
		}
		j.filled += n
	}
	return nil
}

// Open opens (creating if absent) the journal at path for appending.
// validLen is the length of the valid prefix reported by ScanFile; any
// bytes beyond it — a torn tail from the previous crash, or the zero fill
// of a journal that was not closed — are truncated away so new records
// extend known-good history. sync selects the flush policy: true flushes
// every append (power-loss durable) into a region Open has zero-filled
// and made durable beforehand, false leaves flushing to the OS
// (process-death durable only) and the file ending at the log end.
func Open(path string, validLen int64, sync bool) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open journal: %w", err)
	}
	if validLen < headerSize {
		// Empty or corrupt-from-the-start file: rewrite the header.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncate journal: %w", err)
		}
		if _, err := f.WriteAt(journalMagic, 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: write journal header: %w", err)
		}
		validLen = headerSize
	} else {
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncate journal tail: %w", err)
		}
	}
	j := &Journal{f: f, sync: sync, size: validLen, filled: validLen}
	if sync {
		// Truncate first, fill second, and a full fsync (the length changed
		// twice) before the first append can be acknowledged.
		if err := j.fillLocked(validLen); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: zero-fill journal: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: sync journal: %w", err)
		}
		if err := syncDir(path); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

// Append frames payload and writes it as one record. With the sync policy
// enabled the record is flushed before Append returns, so a caller that
// replies to a client after Append never acknowledges state a crash can
// lose. An empty payload is refused: its frame would be all zeros, which
// is how the log end reads.
func (j *Journal) Append(payload []byte) error {
	_, err := j.AppendCounted(payload)
	return err
}

// AppendBatch frames every payload and hands the whole batch to the
// kernel in one write, then — under the sync policy — issues a single
// flush covering all of it. This is the group-commit primitive: N
// records queued by concurrent sessions share one write(2) and one
// flush instead of paying one each. Like Append, a record is either
// wholly before or wholly after any crash point; a machine crash
// between the write and the flush can lose any suffix of the batch,
// which recovery truncates away at the last intact record.
func (j *Journal) AppendBatch(payloads [][]byte) error {
	_, err := j.AppendCounted(payloads...)
	return err
}

// AppendCounted is AppendBatch that also reports how many records this
// handle holds once the batch is among them: the last payload's place in
// journal order, counted under the same lock that ordered the write.
func (j *Journal) AppendCounted(payloads ...[]byte) (int64, error) {
	need := 0
	for _, p := range payloads {
		if len(p) == 0 {
			return 0, fmt.Errorf("wal: empty record")
		}
		if len(p) > MaxRecord {
			return 0, fmt.Errorf("wal: record of %d bytes exceeds limit %d", len(p), MaxRecord)
		}
		need += frameSize + len(p)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return 0, fmt.Errorf("wal: journal closed")
	}
	if cap(j.scratch) < need {
		j.scratch = make([]byte, 0, need+need/2)
	}
	b := j.scratch[:0]
	for _, p := range payloads {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(p))
		b = append(b, p...)
	}
	j.scratch = b
	end := j.size + int64(need)
	if j.sync && end > j.filled {
		if err := j.fillLocked(end); err != nil {
			return 0, fmt.Errorf("wal: zero-fill journal: %w", err)
		}
		if j.extended != nil {
			j.extended()
		}
	}
	if _, err := j.f.WriteAt(b, j.size); err != nil {
		return 0, fmt.Errorf("wal: append %d record(s): %w", len(payloads), err)
	}
	if j.sync {
		start := time.Now()
		if err := j.syncLocked(end); err != nil {
			return 0, fmt.Errorf("wal: flush %d record(s): %w", len(payloads), err)
		}
		if j.synced != nil {
			j.synced(time.Since(start))
		}
	}
	j.size = end
	j.records += int64(len(payloads))
	return j.records, nil
}

// Close truncates the file back to the log end, flushes and closes it.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	var err error
	if j.filled > j.size {
		err = j.f.Truncate(j.size)
	}
	if err == nil {
		err = j.syncLocked(j.size) // a length change is within fdatasync's remit
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// Abandon drops the file handle without flushing or truncating, leaving
// on disk what a killed process leaves: for a sync journal, the records
// followed by the zero fill. For crash tests.
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

// Size reports the log end: the byte length of the header and every
// record, whatever the file's own length.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// ScanFile reads the journal at path from its first record, invoking fn
// for each intact record in order, through the decoder a live tail uses
// (TailScanner). It stops cleanly — without error — at the log end, which
// is wherever that scanner first reports caught-up: a frame with a zero
// length field (the zero fill of a journal that was not closed), the end
// of the file, a truncated frame, an oversized length or a CRC mismatch.
// The returned validLen is the byte length of the valid prefix (what Open
// should truncate to, and a restart point for OpenTail) and n is the
// number of intact records. When fn refuses a record, both stop before
// it and fn's error is returned. A missing file, or one with only zeros
// past its header, is an empty journal (0, 0, nil) whether its header reads
// or not; otherwise a header that does not read is a *DamagedError. Damage
// past the header is not an error, since a torn tail is the expected shape
// of a crashed journal. The only other errors are read failures.
func ScanFile(path string, fn func(payload []byte) error) (validLen int64, n int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("wal: open journal for scan: %w", err)
	}
	defer f.Close()
	if validLen, n, err = scan(f, fn); err != nil || validLen > 0 {
		return validLen, n, err
	}
	if clean, err := ZeroFrom(path, headerSize); err != nil || clean {
		return 0, 0, err
	}
	size, _ := f.Seek(0, io.SeekEnd) // only reported; a failed seek reads 0
	return 0, 0, &DamagedError{Path: path, Size: size}
}

// DamagedError is a journal whose header does not read while bytes that
// could be records follow it: recovery refuses it rather than read it as
// empty and lose them. Offset is where the damage starts.
type DamagedError struct {
	Path         string
	Size, Offset int64
}

func (e *DamagedError) Error() string {
	return fmt.Sprintf("wal: journal %s (%d bytes) is damaged at offset %d", e.Path, e.Size, e.Offset)
}

// scan is ScanFile over r, the whole journal file.
func scan(r io.ReaderAt, fn func(payload []byte) error) (validLen int64, n int64, err error) {
	var head [headerSize]byte
	if got, err := r.ReadAt(head[:], 0); err != nil && err != io.EOF {
		return 0, 0, fmt.Errorf("wal: read journal header: %w", err)
	} else if got < headerSize || string(head[:]) != string(journalMagic) {
		return 0, 0, nil
	}
	t := &TailScanner{f: struct {
		io.ReaderAt
		io.Closer
	}{r, nil}, off: headerSize}
	for {
		at := t.off
		payload, err := t.Next()
		if err == ErrTailCaughtUp {
			return at, n, nil
		}
		if err != nil {
			return at, n, err
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return at, n, err
			}
		}
		n++
	}
}

// ZeroFrom reports whether the journal at path holds nothing but zero fill
// from offset off to its end (a file that ends at or before off qualifies,
// and so does a missing one). Recovery uses it to tell a journal that was
// simply not closed from one whose scan stopped at damage.
func ZeroFrom(path string, off int64) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return true, nil
		}
		return false, fmt.Errorf("wal: open journal tail: %w", err)
	}
	defer f.Close()
	buf := make([]byte, len(zeroPage))
	for {
		n, err := f.ReadAt(buf, off)
		if !bytes.Equal(buf[:n], zeroPage[:n]) {
			return false, nil
		}
		off += int64(n)
		if err == io.EOF {
			return true, nil
		}
		if err != nil {
			return false, fmt.Errorf("wal: read journal tail: %w", err)
		}
	}
}

// WriteSnapshot atomically replaces the snapshot at path with payload:
// the framed bytes are written to a temporary file, fsynced, and renamed
// into place, then the directory is fsynced so the rename itself is
// durable. A crash at any point leaves either the old snapshot or the new
// one — never a torn file (and a torn temp file never matches the magic).
func WriteSnapshot(path string, payload []byte) error {
	if len(payload) > MaxRecord {
		return fmt.Errorf("wal: snapshot of %d bytes exceeds limit %d", len(payload), MaxRecord)
	}
	b := make([]byte, 0, len(snapMagic)+8+len(payload))
	b = append(b, snapMagic...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	b = append(b, payload...)

	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create snapshot temp: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: install snapshot: %w", err)
	}
	return syncDir(path)
}

// ReadSnapshot loads and verifies the snapshot at path. A missing file
// returns (nil, nil): no snapshot is a normal first-boot state. A present
// but corrupt snapshot returns an error so the caller can fall back to an
// older generation.
func ReadSnapshot(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: read snapshot: %w", err)
	}
	if len(data) < len(snapMagic)+8 || string(data[:len(snapMagic)]) != string(snapMagic) {
		return nil, fmt.Errorf("wal: snapshot %s: bad header", filepath.Base(path))
	}
	rest := data[len(snapMagic):]
	length := binary.LittleEndian.Uint32(rest[0:4])
	sum := binary.LittleEndian.Uint32(rest[4:8])
	payload := rest[8:]
	if int64(length) != int64(len(payload)) {
		return nil, fmt.Errorf("wal: snapshot %s: truncated (%d of %d bytes)", filepath.Base(path), len(payload), length)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("wal: snapshot %s: checksum mismatch", filepath.Base(path))
	}
	return payload, nil
}

// Directory-fsync degradation reporting. Some filesystems refuse to
// fsync a directory; when that happens the durability of file creation
// and rename degrades to the OS's own metadata flushing. That is the
// best available and not a reason to fail the write — but it is a
// weaker guarantee than the one advertised, so instead of swallowing
// the refusal this package records it process-wide (it is a property of
// the filesystem, not of one journal) and reports it once through an
// optional handler, which the durability layer turns into a
// wal_dir_sync_unsupported gauge and a trace event for operators.
var (
	dirSyncRefused atomic.Bool
	dirSyncOnce    sync.Once
	dirSyncHandler atomic.Pointer[func(dir string, err error)]
)

// DirSyncUnsupported reports whether any directory fsync has been
// refused by the filesystem since process start.
func DirSyncUnsupported() bool { return dirSyncRefused.Load() }

// OnDirSyncUnsupported installs a handler invoked the first time a
// directory fsync is refused (at most once per process).
func OnDirSyncUnsupported(fn func(dir string, err error)) {
	dirSyncHandler.Store(&fn)
}

func reportDirSyncRefused(dir string, err error) {
	dirSyncOnce.Do(func() {
		dirSyncRefused.Store(true)
		if fn := dirSyncHandler.Load(); fn != nil && *fn != nil {
			(*fn)(dir, err)
		}
	})
}

// syncDir fsyncs the directory containing path, making a just-created or
// just-renamed file durable against machine crash. A filesystem that
// refuses directory fsync degrades the guarantee rather than failing
// the write; the refusal is surfaced through DirSyncUnsupported and the
// OnDirSyncUnsupported handler instead of being silently swallowed.
func syncDir(path string) error {
	dir := filepath.Dir(path)
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		reportDirSyncRefused(dir, err)
	}
	return nil
}
