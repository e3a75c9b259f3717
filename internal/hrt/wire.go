package hrt

import (
	"bufio"
	"encoding/binary"
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
// reads fixed-width fields through a small stack buffer instead of the
// reflection-based binary.Read. The byte layout is identical to the
// original codec; the wire fuzzers round-trip both directions to pin it.

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

// wireReader decodes fixed-width little-endian fields from a stream
// through a small stack buffer, avoiding the per-field allocations of
// reflection-based binary.Read.
type wireReader struct {
	r   io.Reader
	br  *bufio.Reader // single-byte fast path when the stream is buffered
	buf [8]byte
}

func newWireReader(r io.Reader) wireReader {
	br, _ := r.(*bufio.Reader)
	return wireReader{r: r, br: br}
}

func (d *wireReader) byte() (byte, error) {
	if d.br != nil {
		return d.br.ReadByte()
	}
	_, err := io.ReadFull(d.r, d.buf[:1])
	return d.buf[0], err
}

func (d *wireReader) u16() (uint16, error) {
	if _, err := io.ReadFull(d.r, d.buf[:2]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(d.buf[:2]), nil
}

func (d *wireReader) u32() (uint32, error) {
	if _, err := io.ReadFull(d.r, d.buf[:4]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(d.buf[:4]), nil
}

func (d *wireReader) u64() (uint64, error) {
	if _, err := io.ReadFull(d.r, d.buf[:8]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(d.buf[:8]), nil
}

// str reads a length-prefixed string. Short strings (component names,
// most error messages) land in a stack scratch buffer so the only
// allocation is the string itself.
func (d *wireReader) str() (string, error) {
	n, err := d.u32()
	if err != nil {
		return "", err
	}
	if n > maxWireString {
		return "", fmt.Errorf("hrt: wire string length %d exceeds limit", n)
	}
	if n == 0 {
		return "", nil
	}
	var scratch [64]byte
	var buf []byte
	if n <= uint32(len(scratch)) {
		buf = scratch[:n]
	} else {
		buf = make([]byte, n)
	}
	if _, err := io.ReadFull(d.r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func (d *wireReader) value() (interp.Value, error) {
	k, err := d.byte()
	if err != nil {
		return interp.Value{}, err
	}
	switch k {
	case wireNull:
		return interp.NullV(), nil
	case wireInt:
		i, err := d.u64()
		if err != nil {
			return interp.Value{}, err
		}
		return interp.IntV(int64(i)), nil
	case wireFloat:
		bits, err := d.u64()
		if err != nil {
			return interp.Value{}, err
		}
		return interp.FloatV(math.Float64frombits(bits)), nil
	case wireBool:
		b, err := d.byte()
		if err != nil {
			return interp.Value{}, err
		}
		return interp.BoolV(b != 0), nil
	case wireString:
		s, err := d.str()
		if err != nil {
			return interp.Value{}, err
		}
		return interp.StrV(s), nil
	}
	return interp.Value{}, fmt.Errorf("hrt: unknown wire value kind %d", k)
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

// ReadRequest decodes one request from r.
func ReadRequest(r io.Reader) (Request, error) {
	var req Request
	d := newWireReader(r)
	op, err := d.byte()
	if err != nil {
		return req, err
	}
	req.Op = Op(op)
	if req.Flags, err = d.byte(); err != nil {
		return req, err
	}
	if req.Session, err = d.u64(); err != nil {
		return req, err
	}
	if req.Seq, err = d.u64(); err != nil {
		return req, err
	}
	if req.Fn, err = d.str(); err != nil {
		return req, err
	}
	var u uint64
	if u, err = d.u64(); err != nil {
		return req, err
	}
	req.Inst = int64(u)
	if u, err = d.u64(); err != nil {
		return req, err
	}
	req.Obj = int64(u)
	var frag uint32
	if frag, err = d.u32(); err != nil {
		return req, err
	}
	req.Frag = int(int32(frag))
	var n uint16
	if n, err = d.u16(); err != nil {
		return req, err
	}
	if int(n) > maxWireArgs {
		return req, fmt.Errorf("hrt: wire request arg count %d exceeds limit %d", n, maxWireArgs)
	}
	req.Args = make([]interp.Value, n)
	for i := range req.Args {
		if req.Args[i], err = d.value(); err != nil {
			return req, err
		}
	}
	return req, nil
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
	var err error
	if resp.Flags, err = d.byte(); err != nil {
		return resp, err
	}
	if resp.Seq, err = d.u64(); err != nil {
		return resp, err
	}
	if resp.Ack, err = d.u64(); err != nil {
		return resp, err
	}
	if resp.Val, err = d.value(); err != nil {
		return resp, err
	}
	var u uint64
	if u, err = d.u64(); err != nil {
		return resp, err
	}
	resp.Inst = int64(u)
	resp.Err, err = d.str()
	return resp, err
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
