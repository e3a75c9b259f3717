package hrt

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"slicehide/internal/interp"
)

// Codec microbenchmarks. Run with -benchmem: the wire codec sits on both
// hot paths of the open↔hidden link (the client encodes every request, the
// server decodes every frame off the socket), so its allocs/op directly
// bound the per-operation garbage each side produces under load.

// benchRequest is a representative Call frame: a session/seq stamp, a
// method-qualified component name, and a few scalar arguments.
var benchRequest = Request{
	Op: OpCall, Fn: "Class.method", Inst: 17, Frag: 3,
	Session: 0xDEADBEEF01020304, Seq: 912,
	Args: []interp.Value{interp.IntV(41), interp.FloatV(2.5), interp.BoolV(true)},
}

var benchResponse = Response{Val: interp.IntV(1234), Inst: 17, Seq: 912, Ack: 912}

func BenchmarkWireWriteRequest(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteRequest(io.Discard, benchRequest); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireWriteResponse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteResponse(io.Discard, benchResponse); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireReadRequest(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteRequest(&buf, benchRequest); err != nil {
		b.Fatal(err)
	}
	frame := buf.Bytes()
	r := bytes.NewReader(frame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		if _, err := ReadRequest(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireConnDecoder decodes the same frame back to back from a
// buffered stream, the way a serving connection reads a burst: most
// frames parse in place, the one straddling each refill field by field.
func BenchmarkWireConnDecoder(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteRequest(&buf, benchRequest); err != nil {
		b.Fatal(err)
	}
	dec := newConnDecoder(bufio.NewReader(&loopReader{frame: buf.Bytes()}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.next(); err != nil {
			b.Fatal(err)
		}
	}
}

// loopReader repeats frame forever.
type loopReader struct {
	frame []byte
	off   int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], l.frame[l.off:])
		n += c
		l.off = (l.off + c) % len(l.frame)
	}
	return n, nil
}

func BenchmarkWireReadResponse(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteResponse(&buf, benchResponse); err != nil {
		b.Fatal(err)
	}
	frame := buf.Bytes()
	r := bytes.NewReader(frame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		if _, err := ReadResponse(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireRoundTripFrame measures the full encode+decode cycle the
// way the transports use it: request and response through a byte buffer.
func BenchmarkWireRoundTripFrame(b *testing.B) {
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteRequest(&buf, benchRequest); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadRequest(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
