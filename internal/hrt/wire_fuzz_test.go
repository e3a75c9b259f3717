package hrt

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"

	"slicehide/internal/interp"
)

// The wire codec faces the network directly on the hidden (secure) side,
// so a malformed or adversarial frame must never crash the server or make
// it over-allocate. The fuzz targets decode arbitrary bytes; the seed
// corpus includes valid frames so mutation explores near-valid space.
// Decoded requests that re-encode must round trip losslessly.

func fuzzSeedRequests() []Request {
	return []Request{
		{Op: OpEnter, Fn: "f", Obj: 3, Session: 7, Seq: 1},
		{Op: OpExit, Fn: "Class.method", Inst: 9, Session: 7, Seq: 2},
		{Op: OpCall, Fn: "f", Inst: 1, Frag: 4, Session: 1 << 60, Seq: 1 << 40,
			Args: []interp.Value{interp.IntV(-5), interp.FloatV(2.5), interp.BoolV(true), interp.StrV("x\x00y"), interp.NullV()}},
		// Pipelined frames: a reply-free call and a flush barrier.
		{Op: OpCall, Fn: "f", Inst: 1, Frag: 2, Session: 8, Seq: 3, Flags: ReqNoReply,
			Args: []interp.Value{interp.IntV(1)}},
		{Op: OpFlush, Session: 8, Seq: 4},
	}
}

// FuzzReadRequest is differential: every input decodes as a stream of
// frames through ReadRequest, through a connection decoder on a default
// bufio.Reader (most frames parse in place) and through one on a 16-byte
// bufio.Reader (every frame straddles refills and takes the field-by-field
// reread). All three must agree frame for frame, and on where and how
// decoding fails.
func FuzzReadRequest(f *testing.F) {
	for _, req := range fuzzSeedRequests() {
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0xEE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		oneShot := bytes.NewReader(data)
		want, wantErr := decodeAll(func() (Request, error) { return ReadRequest(oneShot) })
		for _, size := range []int{4096, 16} {
			dec := newConnDecoder(bufio.NewReaderSize(bytes.NewReader(data), size))
			got, err := decodeAll(dec.next)
			if len(got) != len(want) || err.Error() != wantErr.Error() {
				t.Fatalf("bufio size %d: decoded %d frames then %v; ReadRequest decoded %d then %v",
					size, len(got), err, len(want), wantErr)
			}
			for i := range want {
				if !sameRequest(got[i], want[i]) {
					t.Fatalf("bufio size %d, frame %d: %+v, ReadRequest %+v", size, i, got[i], want[i])
				}
			}
		}
		// Whatever decoded must re-encode and decode to the same frame.
		for _, req := range want {
			var buf bytes.Buffer
			if err := WriteRequest(&buf, req); err != nil {
				t.Fatalf("decoded request does not re-encode: %v (%+v)", err, req)
			}
			again, err := ReadRequest(&buf)
			if err != nil {
				t.Fatalf("re-encoded request does not decode: %v", err)
			}
			if !sameRequest(again, req) {
				t.Fatalf("request round trip diverged: %+v vs %+v", req, again)
			}
		}
	})
}

// decodeAll calls next until it fails, returning the frames it decoded
// and the error that ended the stream.
func decodeAll(next func() (Request, error)) ([]Request, error) {
	var reqs []Request
	for {
		req, err := next()
		if err != nil {
			return reqs, err
		}
		reqs = append(reqs, req)
	}
}

// sameRequest compares every field, arguments value by value (floats
// bitwise, so a NaN payload or a negative zero must survive too).
func sameRequest(a, b Request) bool {
	if a.Op != b.Op || a.Fn != b.Fn || a.Inst != b.Inst || a.Obj != b.Obj ||
		a.Frag != b.Frag || a.Session != b.Session || a.Seq != b.Seq ||
		a.Flags != b.Flags || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !sameWireValue(a.Args[i], b.Args[i]) {
			return false
		}
	}
	return true
}

func sameWireValue(a, b interp.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case interp.KindInt:
		return a.I == b.I
	case interp.KindFloat:
		return math.Float64bits(a.F()) == math.Float64bits(b.F())
	case interp.KindBool:
		return a.B() == b.B()
	case interp.KindString:
		return a.S() == b.S()
	}
	return true
}

func FuzzReadResponse(f *testing.F) {
	for _, resp := range []Response{
		{Val: interp.NullV()},
		{Val: interp.IntV(42), Inst: 7},
		{Val: interp.StrV("payload"), Err: "hrt: boom"},
		// Window acknowledgement and a resend demand (gap detected).
		{Val: interp.NullV(), Seq: 9, Ack: 9},
		{Val: interp.NullV(), Seq: 12, Ack: 7, Flags: RespResend},
	} {
		var buf bytes.Buffer
		if err := WriteResponse(&buf, resp); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0x04, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := ReadResponse(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteResponse(&buf, resp); err != nil {
			t.Fatalf("decoded response does not re-encode: %v (%+v)", err, resp)
		}
		again, err := ReadResponse(&buf)
		if err != nil {
			t.Fatalf("re-encoded response does not decode: %v", err)
		}
		if !sameWireValue(again.Val, resp.Val) || again.Inst != resp.Inst || again.Err != resp.Err ||
			again.Seq != resp.Seq || again.Ack != resp.Ack || again.Flags != resp.Flags {
			t.Fatalf("response round trip diverged: %+v vs %+v", resp, again)
		}
	})
}

// FuzzReadMuxFrame covers the multiplexed frame head: the session stamp
// prefixed to a response body. The frame faces the visible (untrusted)
// network between client and hidden server, so arbitrary bytes must never
// panic the decoder, and whatever decodes must round trip losslessly —
// a session stamp that shifts in transit would deliver a response to the
// wrong stream.
func FuzzReadMuxFrame(f *testing.F) {
	for _, seed := range []struct {
		session uint64
		resp    Response
	}{
		{1, Response{Val: interp.NullV(), Seq: 1, Ack: 1}},
		{1 << 63, Response{Val: interp.IntV(-7), Inst: 3, Seq: 9, Ack: 4, Flags: RespResend}},
		// Unsolicited window update: Seq 0, RespWindow flag.
		{42, Response{Val: interp.NullV(), Ack: 31, Flags: RespWindow}},
		{7, Response{Val: interp.StrV("x\x00y"), Err: "hrt: boom"}},
	} {
		var buf bytes.Buffer
		if err := WriteMuxFrame(&buf, seed.session, seed.resp); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0xEE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) // truncated session stamp
	f.Fuzz(func(t *testing.T, data []byte) {
		session, resp, err := ReadMuxFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMuxFrame(&buf, session, resp); err != nil {
			t.Fatalf("decoded mux frame does not re-encode: %v (session=%d %+v)", err, session, resp)
		}
		againSession, again, err := ReadMuxFrame(&buf)
		if err != nil {
			t.Fatalf("re-encoded mux frame does not decode: %v", err)
		}
		if againSession != session || !sameWireValue(again.Val, resp.Val) || again.Inst != resp.Inst ||
			again.Err != resp.Err || again.Seq != resp.Seq || again.Ack != resp.Ack ||
			again.Flags != resp.Flags {
			t.Fatalf("mux frame round trip diverged: session %d->%d, %+v vs %+v",
				session, againSession, resp, again)
		}
	})
}

// TestWireArgCountCapped pins the over-allocation guard: a frame claiming
// an enormous argument count is rejected on read, and the writer refuses
// to produce one.
func TestWireArgCountCapped(t *testing.T) {
	req := Request{Op: OpCall, Fn: "f", Args: make([]interp.Value, maxWireArgs+1)}
	for i := range req.Args {
		req.Args[i] = interp.IntV(0)
	}
	var buf bytes.Buffer
	if err := WriteRequest(&buf, req); err == nil {
		t.Error("writer accepted more args than the wire limit")
	}

	// Hand-craft a frame whose arg count exceeds the cap.
	buf.Reset()
	ok := Request{Op: OpCall, Fn: "f", Args: []interp.Value{interp.IntV(1)}}
	if err := WriteRequest(&buf, ok); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	// The arg count is the uint16 right before the single encoded int
	// argument (9 bytes).
	frame[len(frame)-9-2] = 0xFF
	frame[len(frame)-9-1] = 0xFF
	if _, err := ReadRequest(bytes.NewReader(frame)); err == nil {
		t.Error("reader accepted a frame claiming 65535 args")
	}
}

// TestWireSessionSeqRoundTrip pins the new header fields.
func TestWireSessionSeqRoundTrip(t *testing.T) {
	req := Request{Op: OpCall, Fn: "f", Session: 0xDEADBEEF01020304, Seq: 77}
	var buf bytes.Buffer
	if err := WriteRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Session != req.Session || got.Seq != req.Seq {
		t.Errorf("session/seq round trip: %+v", got)
	}
}

// TestWireSizeMatchesEncoding keeps the size accounting in sync with the
// codec.
func TestWireSizeMatchesEncoding(t *testing.T) {
	for _, req := range fuzzSeedRequests() {
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			t.Fatal(err)
		}
		if got := RequestWireSize(req); got != int64(buf.Len()) {
			t.Errorf("RequestWireSize=%d, encoded %d bytes (%+v)", got, buf.Len(), req)
		}
	}
	for _, resp := range []Response{
		{Val: interp.NullV()},
		{Val: interp.FloatV(1.5), Inst: 2, Err: "e"},
		{Val: interp.StrV("abc")},
	} {
		var buf bytes.Buffer
		if err := WriteResponse(&buf, resp); err != nil {
			t.Fatal(err)
		}
		if got := ResponseWireSize(resp); got != int64(buf.Len()) {
			t.Errorf("ResponseWireSize=%d, encoded %d bytes (%+v)", got, buf.Len(), resp)
		}
	}
}

// TestConnDecoderArgsDoNotAlias pins the argument slab's rule: each
// request's Args is its own region, clipped to its length, so appending
// to or overwriting one request's arguments never reaches another's, however
// long the requests are kept. 200 frames cross several 64-value slabs,
// and the 16-byte reader sends every frame through the reread.
func TestConnDecoderArgsDoNotAlias(t *testing.T) {
	arg := func(i, k int) interp.Value {
		switch k % 3 {
		case 1:
			return interp.FloatV(float64(i) + float64(k)/8)
		case 2:
			return interp.StrV(fmt.Sprintf("a%d.%d", i, k))
		}
		return interp.IntV(int64(i*10 + k))
	}
	const frames = 200
	var stream bytes.Buffer
	for i := 0; i < frames; i++ {
		req := Request{Op: OpCall, Fn: "f", Session: 1, Seq: uint64(i + 1), Args: make([]interp.Value, 1+i%5)}
		for k := range req.Args {
			req.Args[k] = arg(i, k)
		}
		if err := WriteRequest(&stream, req); err != nil {
			t.Fatal(err)
		}
	}
	for _, size := range []int{4096, 16} {
		dec := newConnDecoder(bufio.NewReaderSize(bytes.NewReader(stream.Bytes()), size))
		reqs := make([]Request, frames)
		for i := range reqs {
			var err error
			if reqs[i], err = dec.next(); err != nil {
				t.Fatalf("size %d: frame %d: %v", size, i, err)
			}
			if cap(reqs[i].Args) != len(reqs[i].Args) {
				t.Fatalf("size %d: frame %d: Args has len %d but cap %d", size, i, len(reqs[i].Args), cap(reqs[i].Args))
			}
		}
		check := func(what string, want func(i, k int) interp.Value) {
			t.Helper()
			for i, req := range reqs {
				if len(req.Args) != 1+i%5 {
					t.Fatalf("size %d, %s: frame %d has %d args", size, what, i, len(req.Args))
				}
				for k, v := range req.Args {
					if !sameWireValue(v, want(i, k)) {
						t.Fatalf("size %d, %s: frame %d arg %d = %v, want %v", size, what, i, k, v, want(i, k))
					}
				}
			}
		}
		check("decoded", arg)
		for i := range reqs {
			grown := append(reqs[i].Args, interp.IntV(-1), interp.IntV(-2))
			grown[0] = interp.IntV(-3)
		}
		check("after appends", arg)
		mine := func(i, k int) interp.Value { return interp.IntV(int64(-1000*i - k)) }
		for i := range reqs {
			for k := range reqs[i].Args {
				reqs[i].Args[k] = mine(i, k)
			}
		}
		check("after overwrites", mine)
	}
}

// TestConnDecoderMatchesReadRequest reads the seed frames back to back
// through every bufio size from the minimum to the default, so the frame
// boundaries fall at every offset of a refill: each must decode exactly
// as ReadRequest decodes it.
func TestConnDecoderMatchesReadRequest(t *testing.T) {
	var stream bytes.Buffer
	for _, req := range fuzzSeedRequests() {
		if err := WriteRequest(&stream, req); err != nil {
			t.Fatal(err)
		}
	}
	oneShot := bytes.NewReader(stream.Bytes())
	want, wantErr := decodeAll(func() (Request, error) { return ReadRequest(oneShot) })
	if wantErr != io.EOF || len(want) != len(fuzzSeedRequests()) {
		t.Fatalf("ReadRequest decoded %d frames then %v", len(want), wantErr)
	}
	for size := 16; size <= 4096; size++ {
		dec := newConnDecoder(bufio.NewReaderSize(bytes.NewReader(stream.Bytes()), size))
		got, err := decodeAll(dec.next)
		if err != io.EOF || len(got) != len(want) {
			t.Fatalf("bufio size %d: decoded %d frames then %v", size, len(got), err)
		}
		for i := range want {
			if !sameRequest(got[i], want[i]) {
				t.Fatalf("bufio size %d, frame %d: %+v, ReadRequest %+v", size, i, got[i], want[i])
			}
		}
	}
}
