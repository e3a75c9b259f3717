package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"testing"
)

// The journal is read back at every hiddend boot, over whatever bytes a
// crash left on disk, and followed live by every replication pump — both
// through TailScanner, the one frame decoder — so the scanner faces
// arbitrary input and must never panic, never over-allocate, and always
// stop cleanly at the first corrupt record. The fuzzer feeds it raw bytes
// (seeded with valid journals, torn tails, bit flips, duplicate records,
// and the zero fill a killed sync journal leaves behind its log end) and
// checks the invariants ScanFile promises, plus the one the pump relies
// on: a tail reopened at the recovered log end is caught up.

func fuzzJournal(records ...[]byte) []byte {
	var b bytes.Buffer
	b.Write(journalMagic)
	for _, r := range records {
		var frame [frameSize]byte
		binary.LittleEndian.PutUint32(frame[0:4], uint32(len(r)))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(r))
		b.Write(frame[:])
		b.Write(r)
	}
	return b.Bytes()
}

func FuzzScanJournal(f *testing.F) {
	valid := fuzzJournal([]byte("alpha"), []byte(""), []byte("beta\x00\xff"))
	f.Add(valid)
	f.Add(valid[:len(valid)-2])                                        // torn payload
	f.Add(valid[:headerSize+3])                                        // torn frame header
	f.Add(fuzzJournal())                                               // header only
	f.Add([]byte{})                                                    // empty file
	f.Add([]byte("SLWAL\x01\x00\x00\xff\xff\xff\xff\x00\x00\x00\x00")) // huge length
	dup := fuzzJournal([]byte("same"), []byte("same"))
	f.Add(dup)
	flip := append([]byte(nil), valid...)
	flip[headerSize+frameSize+1] ^= 0x10
	f.Add(flip)
	prefix := fuzzJournal([]byte("alpha"), []byte("beta"))
	zeros := make([]byte, 4096)
	f.Add(bytes.Join([][]byte{prefix, zeros}, nil)) // valid prefix + zeros
	stale := fuzzJournal([]byte("stale"))[headerSize:]
	f.Add(bytes.Join([][]byte{prefix, zeros, stale}, nil)) // ... + stale record

	f.Fuzz(func(t *testing.T, data []byte) {
		var total int64
		validLen, n, err := scan(bytes.NewReader(data), func(p []byte) error {
			if len(p) == 0 {
				t.Fatal("scan delivered an empty record: a zero frame is the log end")
			}
			total += int64(len(p))
			return nil
		})
		if err != nil {
			t.Fatalf("scan returned error on arbitrary bytes: %v", err)
		}
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("validLen %d outside input of %d bytes", validLen, len(data))
		}
		if n > 0 && validLen < headerSize {
			t.Fatalf("records without a header: n=%d validLen=%d", n, validLen)
		}
		// The valid prefix accounts exactly for header + frames + payloads.
		if n >= 0 && validLen > 0 {
			if want := validLen - headerSize - n*frameSize; total != want {
				t.Fatalf("payload bytes %d do not match valid prefix (%d records, validLen %d)", total, n, validLen)
			}
		}
		// Determinism: scanning the valid prefix alone yields the same records.
		if validLen > 0 {
			again, m, err := scan(bytes.NewReader(data[:validLen]), nil)
			if err != nil || again != validLen || m != n {
				t.Fatalf("rescan of valid prefix diverged: %d/%d vs %d/%d (%v)", again, m, validLen, n, err)
			}
			// The restart point: a tail opened at the recovered log end has
			// nothing to deliver and stays there.
			tail := &TailScanner{f: struct {
				io.ReaderAt
				io.Closer
			}{bytes.NewReader(data), nil}, off: validLen}
			if p, err := tail.Next(); err != ErrTailCaughtUp {
				t.Fatalf("tail at validLen %d: got %d-byte record, err %v; want caught up", validLen, len(p), err)
			}
			if tail.Offset() != validLen {
				t.Fatalf("caught-up tail moved from %d to %d", validLen, tail.Offset())
			}
		}
	})
}
