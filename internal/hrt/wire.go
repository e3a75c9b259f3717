package hrt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"slicehide/internal/interp"
)

// Wire protocol: little-endian binary framing for requests and responses.
// Only scalar values cross the open↔hidden boundary (by construction of the
// splitting transformation), so the value codec covers null, int, float,
// bool, and string.
//
// The codec is allocation-lean: each frame is encoded into a pooled scratch
// buffer and flushed with a single Write (which also means an unbuffered
// socket sees one syscall per frame instead of one per field), and decoding
// reads fixed-width fields through a small buffer instead of the
// reflection-based binary.Read. The byte layout is identical to the
// original codec; the wire fuzzers round-trip both directions to pin it.
//
// A serving connection reads its requests through one connDecoder. When a
// whole frame is already in the bufio.Reader's buffer it is parsed in
// place (Peek, then Discard of exactly the frame's length); a frame that
// spans a refill is reread field by field. Both run connDecoder.parse, as
// does the one-shot ReadRequest, so there is one reading of the layout.
// The decoder hands each request's Args out of a per-connection slab of
// argSlab values as a region clipped to its length: a region goes to one
// request only and a spent slab is replaced, not reused, so no two
// requests alias. Nothing keeps Args after the fragment executes, and the
// VM writes only inside a fragment's own argument region, so a slab lives
// about as long as the requests cut from it.

const (
	wireNull byte = iota
	wireInt
	wireFloat
	wireBool
	wireString
)

const (
	maxWireString = 1 << 20
	// maxWireArgs caps the argument count of a single request so that a
	// malformed or adversarial frame can never make the hidden server
	// over-allocate. Fragments take a handful of scalars by construction;
	// the cap is generous.
	maxWireArgs = 1024
)

// wireBufPool recycles encode scratch buffers. Buffers grow to fit the
// largest frame they have carried and are reused as-is; frames are small
// (a name, a few scalars), so there is no pathological retention.
var wireBufPool = sync.Pool{New: func() any { return new([]byte) }}

func getWireBuf() *[]byte  { return wireBufPool.Get().(*[]byte) }
func putWireBuf(b *[]byte) { wireBufPool.Put(b) }

// appendString appends a length-prefixed string.
func appendString(b []byte, s string) ([]byte, error) {
	if len(s) > maxWireString {
		return b, fmt.Errorf("hrt: string too long for wire (%d bytes)", len(s))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...), nil
}

// appendValue appends one encoded value.
func appendValue(b []byte, v interp.Value) ([]byte, error) {
	switch v.Kind {
	case interp.KindNull:
		return append(b, wireNull), nil
	case interp.KindInt:
		b = append(b, wireInt)
		return binary.LittleEndian.AppendUint64(b, uint64(v.I)), nil
	case interp.KindFloat:
		b = append(b, wireFloat)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.F())), nil
	case interp.KindBool:
		x := byte(0)
		if v.B() {
			x = 1
		}
		return append(b, wireBool, x), nil
	case interp.KindString:
		return appendString(append(b, wireString), v.S())
	}
	return b, fmt.Errorf("hrt: cannot send %s value over the wire", v.Kind)
}

// wireReader decodes little-endian fields in one of two modes. In slice
// mode (r nil) it reads from b, a frame already in memory, and fails with
// errShortFrame when the frame runs past it; in stream mode it reads each
// field from r through buf. The first failure sticks: it is kept in err,
// and every later read returns a zero value without touching the input,
// so a decoder reads its fields straight through and checks err once
// (a limit check reports through fail, so it never overrides an earlier
// read error).
type wireReader struct {
	b   []byte        // slice mode: the bytes not yet decoded
	r   io.Reader     // stream mode: the source
	br  *bufio.Reader // single-byte fast path when the stream is buffered
	err error
	// buf holds a stream-mode field. It is allocated on first use and is
	// not part of the reader, so a reader never escapes to the heap.
	buf *[8]byte
}

// errShortFrame ends a slice-mode decode that ran past the buffered bytes;
// the connection decoder then rereads the frame in stream mode.
var errShortFrame = errors.New("hrt: frame runs past the buffered bytes")

func newWireReader(r io.Reader) wireReader {
	br, _ := r.(*bufio.Reader)
	return wireReader{r: r, br: br}
}

func (d *wireReader) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// take returns the next n bytes, or nil once decoding has failed. In
// stream mode they live in buf (or, past its size, a fresh slice) until
// the next take.
func (d *wireReader) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.r == nil {
		if len(d.b) < n {
			d.err = errShortFrame
			return nil
		}
		p := d.b[:n]
		d.b = d.b[n:]
		return p
	}
	var p []byte
	if n <= 8 {
		if d.buf == nil {
			d.buf = new([8]byte)
		}
		p = d.buf[:n]
	} else {
		p = make([]byte, n)
	}
	if _, err := io.ReadFull(d.r, p); err != nil {
		d.err = err
		return nil
	}
	return p
}

func (d *wireReader) byte() byte {
	if d.br != nil && d.err == nil {
		c, err := d.br.ReadByte()
		d.err = err
		return c
	}
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *wireReader) u16() uint16 {
	if p := d.take(2); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

func (d *wireReader) u32() uint32 {
	if p := d.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (d *wireReader) u64() uint64 {
	if p := d.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// str reads a length-prefixed string, the one allocation.
func (d *wireReader) str() string {
	n := d.u32()
	if n > maxWireString {
		d.fail(fmt.Errorf("hrt: wire string length %d exceeds limit", n))
	}
	return string(d.take(int(n)))
}

func (d *wireReader) value() interp.Value {
	switch k := d.byte(); k {
	case wireNull:
		return interp.NullV()
	case wireInt:
		return interp.IntV(int64(d.u64()))
	case wireFloat:
		return interp.FloatV(math.Float64frombits(d.u64()))
	case wireBool:
		return interp.BoolV(d.byte() != 0)
	case wireString:
		return interp.StrV(d.str())
	default:
		d.fail(fmt.Errorf("hrt: unknown wire value kind %d", k))
		return interp.Value{}
	}
}

// WriteRequest encodes req onto w as a single Write.
func WriteRequest(w io.Writer, req Request) error {
	if len(req.Args) > maxWireArgs {
		return fmt.Errorf("hrt: request has %d args, wire limit is %d", len(req.Args), maxWireArgs)
	}
	bp := getWireBuf()
	b := append((*bp)[:0], byte(req.Op), req.Flags)
	b = binary.LittleEndian.AppendUint64(b, req.Session)
	b = binary.LittleEndian.AppendUint64(b, req.Seq)
	var err error
	if b, err = appendString(b, req.Fn); err != nil {
		*bp = b
		putWireBuf(bp)
		return err
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(req.Inst))
	b = binary.LittleEndian.AppendUint64(b, uint64(req.Obj))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(req.Frag)))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(req.Args)))
	for _, a := range req.Args {
		if b, err = appendValue(b, a); err != nil {
			*bp = b
			putWireBuf(bp)
			return err
		}
	}
	_, err = w.Write(b)
	*bp = b
	putWireBuf(bp)
	return err
}

// ReadRequest decodes one request from r: the one-shot form of the
// connection decoder, the same parse with nothing carried between frames.
func ReadRequest(r io.Reader) (Request, error) {
	var c connDecoder
	var req Request
	d := newWireReader(r)
	err := c.parse(&d, &req)
	return req, err
}

// argSlab is the number of argument values one slab holds.
const argSlab = 64

// connDecoder reads request frames. Over a connection (br set) it reads a
// frame in place when the whole frame is already buffered and cuts each
// request's Args from a slab; the zero value decodes one-shot.
type connDecoder struct {
	br   *bufio.Reader
	slab []interp.Value // the unclaimed rest of the current slab
	d    wireReader     // per connection, so a frame allocates no reader
}

func newConnDecoder(br *bufio.Reader) *connDecoder { return &connDecoder{br: br} }

// next decodes the connection's next request, blocking until it arrives.
// A frame parsed in place is Discarded to its exact length, so whoever
// reads the connection next starts at the following frame; one that
// spans a refill is reread field by field.
func (c *connDecoder) next() (Request, error) {
	n := c.br.Buffered()
	if n == 0 {
		if _, err := c.br.Peek(1); err != nil {
			return Request{}, err
		}
		n = c.br.Buffered()
	}
	buf, _ := c.br.Peek(n)
	c.d.b, c.d.r, c.d.br, c.d.err = buf, nil, nil, nil
	slab := c.slab
	var req Request
	err := c.parse(&c.d, &req)
	if err != errShortFrame {
		if err == nil {
			_, _ = c.br.Discard(n - len(c.d.b)) // cannot fail: the frame is buffered
		}
		return req, err
	}
	// The short parse handed nothing out: take its slab region back.
	c.slab = slab
	c.d.b, c.d.r, c.d.br, c.d.err = nil, c.br, c.br, nil
	err = c.parse(&c.d, &req)
	return req, err
}

// args returns a fresh n-value argument slice: over a connection, a slab
// region clipped to its length and handed out once, so appending to one
// request's Args reallocates instead of running into another's.
func (c *connDecoder) args(n int) []interp.Value {
	if n == 0 {
		return []interp.Value{}
	}
	if c.br == nil || n > argSlab {
		return make([]interp.Value, n)
	}
	if n > len(c.slab) {
		c.slab = make([]interp.Value, argSlab)
	}
	a := c.slab[:n:n]
	c.slab = c.slab[n:]
	return a
}

// parse decodes one request through d into req, setting every field: the
// one reading of the layout WriteRequest writes.
func (c *connDecoder) parse(d *wireReader, req *Request) error {
	req.Op = Op(d.byte())
	req.Flags = d.byte()
	req.Session = d.u64()
	req.Seq = d.u64()
	req.Fn = d.str()
	req.Inst = int64(d.u64())
	req.Obj = int64(d.u64())
	req.Frag = int(int32(d.u32()))
	n := d.u16()
	if int(n) > maxWireArgs {
		d.fail(fmt.Errorf("hrt: wire request arg count %d exceeds limit %d", n, maxWireArgs))
	}
	if d.err != nil {
		return d.err
	}
	req.Args = c.args(int(n))
	for i := range req.Args {
		req.Args[i] = d.value()
	}
	return d.err
}

// appendResponse appends resp's encoded body; shared by the plain frame
// writer and the multiplexed frame writer so the body layout cannot drift.
func appendResponse(b []byte, resp Response) ([]byte, error) {
	b = append(b, resp.Flags)
	b = binary.LittleEndian.AppendUint64(b, resp.Seq)
	b = binary.LittleEndian.AppendUint64(b, resp.Ack)
	var err error
	if b, err = appendValue(b, resp.Val); err != nil {
		return b, err
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(resp.Inst))
	return appendString(b, resp.Err)
}

// WriteResponse encodes resp onto w as a single Write.
func WriteResponse(w io.Writer, resp Response) error {
	bp := getWireBuf()
	b, err := appendResponse((*bp)[:0], resp)
	if err != nil {
		*bp = b
		putWireBuf(bp)
		return err
	}
	_, err = w.Write(b)
	*bp = b
	putWireBuf(bp)
	return err
}

// readResponse decodes one response body through d; shared by the plain
// and multiplexed frame readers.
func readResponse(d *wireReader) (Response, error) {
	var resp Response
	resp.Flags = d.byte()
	resp.Seq = d.u64()
	resp.Ack = d.u64()
	resp.Val = d.value()
	resp.Inst = int64(d.u64())
	resp.Err = d.str()
	return resp, d.err
}

// ReadResponse decodes one response from r.
func ReadResponse(r io.Reader) (Response, error) {
	d := newWireReader(r)
	return readResponse(&d)
}

// RequestWireSize returns the encoded size of req in bytes. It is kept in
// sync with WriteRequest and lets transports account wire volume without
// re-encoding (the experiments report it alongside interaction counts).
func RequestWireSize(req Request) int64 {
	n := int64(1 + 1 + 8 + 8 + 4 + len(req.Fn) + 8 + 8 + 4 + 2)
	for _, a := range req.Args {
		n += valueWireSize(a)
	}
	return n
}

// ResponseWireSize returns the encoded size of resp in bytes.
func ResponseWireSize(resp Response) int64 {
	return 1 + 8 + 8 + valueWireSize(resp.Val) + 8 + 4 + int64(len(resp.Err))
}

func valueWireSize(v interp.Value) int64 {
	switch v.Kind {
	case interp.KindInt, interp.KindFloat:
		return 9
	case interp.KindBool:
		return 2
	case interp.KindString:
		return int64(5 + len(v.S()))
	}
	return 1
}
