package hrt

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
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
