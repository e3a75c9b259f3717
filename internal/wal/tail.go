package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

// Tail reading: the one journal-frame decoder. A TailScanner parses every
// frame this package reads back — recovery's ScanFile is a loop over one
// opened at the first record — and a primary's replication pump follows
// its own journal file with one, shipping each record to followers as it
// lands. An OffsetTracker tracks how far each follower has acknowledged:
// the distance between the journal end and the slowest acknowledged
// offset is the replication lag the /readyz endpoint and the
// repl_lag_records gauge report.
//
// The log end is wherever the next frame is not a complete, CRC-clean
// record: a zero frame (the zero fill ahead of a sync journal's log end),
// a torn frame, an oversized length field or a CRC mismatch. None of
// these is an error, they are "caught up". Recovery takes that offset as
// the valid prefix; a live tail treats it as "not yet" — the appender's
// single write(2) per record will complete it, and the scanner re-reads
// from the same offset on the next call. A tail stopped at corrupt
// history therefore waits there rather than crossing it.
//
// The scanner reads with its own file handle, so it never contends with
// the appender beyond the OS page cache, and it reads ahead: one pread
// fills a small window and records are parsed out of it with no further
// system call. When the window runs out of complete records and the read
// that filled it already reached the log end (end of file, zero fill, a
// torn frame), Next reports caught-up straight from the window. A caller
// that acquired its append notification before that read can therefore
// wait on it without a confirming read: an append the window missed
// landed after the read, hence after the notification was acquired.

// ErrTailCaughtUp is returned by TailScanner.Next when no complete record
// lies beyond the current offset. The caller waits for an append
// notification (or polls) and calls Next again.
var ErrTailCaughtUp = fmt.Errorf("wal: tail caught up")

// tailWindow is the read-ahead window. A caught-up follower reads one or
// two records per wake-up, and on a sync journal the rest of the window is
// zero fill copied for nothing, so it is kept small; a frame that does not
// fit gets a buffer of its own for as long as it is the next record.
const tailWindow = 8 << 10

// TailScanner incrementally reads records appended to a journal file.
type TailScanner struct {
	f interface {
		io.ReaderAt
		io.Closer
	}
	off int64 // file offset of the next unread record
	// win[pos:] holds the file's bytes from off onward as of the last fill.
	// short reports that fill ended at the end of the file, so a frame the
	// window holds only part of is the log end rather than a frame
	// straddling the window's end.
	win   []byte
	pos   int
	short bool
}

// OpenTail opens the journal at path for tail reading, starting at off.
// Offset 0 (or anything below the header) starts at the first record; a
// larger offset must be a record boundary, such as the valid length
// ScanFile returns. A journal that does not exist yet, or does not start
// with the journal header, is an error — the caller opens the tail only
// after the appender created the generation.
func OpenTail(path string, off int64) (*TailScanner, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: open journal tail: %w", err)
	}
	var head [headerSize]byte
	if _, err := io.ReadFull(f, head[:]); err != nil || string(head[:]) != string(journalMagic) {
		f.Close()
		if err == nil {
			err = fmt.Errorf("bad magic")
		}
		return nil, fmt.Errorf("wal: journal tail header: %w", err)
	}
	if off < headerSize {
		off = headerSize
	}
	return &TailScanner{f: f, off: off}, nil
}

// Next returns the next complete record's payload, or ErrTailCaughtUp when
// the log ends (end of file, zero fill, a not-yet-complete frame, an
// oversized length or a CRC mismatch) at the current offset. The returned
// slice is reused by the following Next call. A CRC mismatch on a frame
// that is fully present may be a torn write racing the read (length
// landed, payload partially visible), so it is the log end like any other.
//
// Next reads the file only when the window holds no complete record and
// has not seen the log end: once per window, plus once more for a frame
// larger than the window. After reporting caught-up it forgets the window,
// so the following call reads the file again from the same offset.
func (t *TailScanner) Next() ([]byte, error) {
	for {
		need := frameSize
		if rest := t.win[t.pos:]; len(rest) >= frameSize {
			length := binary.LittleEndian.Uint32(rest[0:4])
			sum := binary.LittleEndian.Uint32(rest[4:8])
			if length == 0 || length > MaxRecord {
				return nil, t.caughtUp() // zero fill, or a corrupt length field
			}
			need = frameSize + int(length)
			if len(rest) >= need {
				payload := rest[frameSize:need]
				if crc32.ChecksumIEEE(payload) != sum {
					return nil, t.caughtUp()
				}
				t.pos += need
				t.off += int64(need)
				return payload, nil
			}
		}
		// The window holds less than the next frame. If the read that filled
		// it stopped at the end of the file, that is the log end (nothing
		// there yet, or a frame still being written).
		if t.short {
			return nil, t.caughtUp()
		}
		if err := t.fill(need); err != nil {
			return nil, err
		}
	}
}

// fill replaces the window with one read at the current offset, sized for
// a frame of need bytes when that exceeds the standing window.
func (t *TailScanner) fill(need int) error {
	size := max(need, tailWindow)
	if cap(t.win) != size {
		t.win = make([]byte, size)
	}
	n, err := t.f.ReadAt(t.win[:size], t.off)
	if err != nil && err != io.EOF {
		return fmt.Errorf("wal: tail read: %w", err)
	}
	t.win, t.pos, t.short = t.win[:n], 0, n < size
	return nil
}

// caughtUp drops the window — what follows the log end must be read again,
// not remembered — and returns ErrTailCaughtUp.
func (t *TailScanner) caughtUp() error {
	t.win, t.pos, t.short = t.win[:0], 0, false
	return ErrTailCaughtUp
}

// Close releases the read handle.
func (t *TailScanner) Close() error { return t.f.Close() }

// OffsetTracker records, per follower, the newest replication position the
// follower has acknowledged applying. Positions are (generation, record
// index) pairs — byte offsets do not survive journal rotation, record
// indexes within a generation do. Waiters block until every currently
// registered follower has acknowledged at least a target position, which
// is how the semi-synchronous request path holds a response until its
// record is safe on the follower tier.
type OffsetTracker struct {
	mu    sync.Mutex
	cond  *sync.Cond
	acked map[string]Position
}

// Position orders replication progress across journal rotations.
type Position struct {
	// Gen is the journal generation.
	Gen uint64
	// Records is the number of records of that generation acknowledged.
	Records int64
}

// Before reports whether p is strictly behind q.
func (p Position) Before(q Position) bool {
	if p.Gen != q.Gen {
		return p.Gen < q.Gen
	}
	return p.Records < q.Records
}

// NewOffsetTracker returns an empty tracker.
func NewOffsetTracker() *OffsetTracker {
	t := &OffsetTracker{acked: make(map[string]Position)}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// RegisterAt registers a follower at a known starting position — the
// resume point of a reconnecting stream, or a catch-up transfer's cut;
// Position{} means nothing acknowledged. Registering an existing follower
// resets its position.
// Registering a joiner at its true position (instead of zero) keeps the
// commit gate from stalling on history the follower already holds.
func (t *OffsetTracker) RegisterAt(peer string, pos Position) {
	t.mu.Lock()
	t.acked[peer] = pos
	t.mu.Unlock()
	t.cond.Broadcast()
}

// Drop removes a follower; waiters re-evaluate without it (a dead follower
// must not wedge the request path forever).
func (t *OffsetTracker) Drop(peer string) {
	t.mu.Lock()
	delete(t.acked, peer)
	t.mu.Unlock()
	t.cond.Broadcast()
}

// Ack records that peer has applied everything up to pos.
func (t *OffsetTracker) Ack(peer string, pos Position) {
	t.mu.Lock()
	cur, ok := t.acked[peer]
	advanced := ok && cur.Before(pos)
	if advanced {
		t.acked[peer] = pos
	}
	t.mu.Unlock()
	if advanced {
		t.cond.Broadcast()
	}
}

// Acked returns peer's acknowledged position (zero if unregistered).
func (t *OffsetTracker) Acked(peer string) Position {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.acked[peer]
}

// Each calls fn with every registered follower and its acknowledged
// position, under the tracker's lock: fn must not call back into t.
func (t *OffsetTracker) Each(fn func(peer string, pos Position)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for peer, pos := range t.acked {
		fn(peer, pos)
	}
}

// Min returns the slowest registered follower's position and the follower
// count. With no followers it returns (zero, 0).
func (t *OffsetTracker) Min() (Position, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.minLocked()
}

func (t *OffsetTracker) minLocked() (Position, int) {
	var min Position
	first := true
	for _, pos := range t.acked {
		if first || pos.Before(min) {
			min, first = pos, false
		}
	}
	return min, len(t.acked)
}

// WaitForTimeout blocks until every registered follower has acknowledged
// at least target, or no followers remain registered (a fleet of one
// serves alone), and returns the number of followers that covered the
// target. With a positive timeout it additionally returns false if timeout
// elapsed before every follower covered the target: a wedged (but still
// connected) follower must not hold the request path hostage — the caller
// degrades to asynchronous replication for that response. A timeout ≤ 0
// waits without a deadline.
func (t *OffsetTracker) WaitForTimeout(target Position, timeout time.Duration) (int, bool) {
	if timeout <= 0 {
		n, _ := t.waitFor(target, nil)
		return n, true
	}
	expired := make(chan struct{})
	timer := time.AfterFunc(timeout, func() {
		close(expired)
		t.cond.Broadcast()
	})
	defer timer.Stop()
	return t.waitFor(target, expired)
}

func (t *OffsetTracker) waitFor(target Position, expired <-chan struct{}) (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		min, n := t.minLocked()
		if n == 0 || !min.Before(target) {
			return n, true
		}
		if expired != nil {
			select {
			case <-expired:
				return n, false
			default:
			}
		}
		t.cond.Wait()
	}
}
