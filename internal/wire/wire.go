// Package wire is the frame codec of the system's two TCP protocols: the
// coordinator↔vantage protocol (internal/vantage) and primary→replica
// segment shipping (internal/store). It is the only owner of the frame
// format; the protocols define their message bodies on top of it.
//
// A frame is a 4-byte big-endian length covering everything after itself,
// a 1-byte frame type and a type-specific body, so a stream self-delimits
// over TCP. Bodies are big-endian throughout: the Append helpers encode
// them and Reader decodes them with latched bounds checks.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"snmpv3fp/internal/bufpool"
)

// MaxFrame bounds a frame (type byte plus body) so a corrupt or hostile
// length prefix cannot make ReadFrame allocate unboundedly. Both protocols
// chunk their bulk messages far below it.
const MaxFrame = 8 << 20

// ErrFrameTooLarge reports a frame, read or written, beyond MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ErrTruncatedFrame reports a frame with no type byte, or a body shorter
// than its fields claim.
var ErrTruncatedFrame = errors.New("wire: truncated frame body")

// Pool recycles frame and body assembly buffers. Frames that outgrow a
// pooled buffer reallocate via append; Put recovers the grown buffer for
// reuse either way.
var Pool = bufpool.New(64, 64<<10)

// WriteFrame writes one length-prefixed frame in a single Write. The body
// is not retained.
func WriteFrame(w io.Writer, typ byte, body []byte) error {
	if len(body)+1 > MaxFrame {
		return ErrFrameTooLarge
	}
	buf := Pool.Get()[:0]
	buf = AppendU32(buf, uint32(len(body)+1))
	buf = append(buf, typ)
	buf = append(buf, body...)
	_, err := w.Write(buf)
	Pool.Put(buf)
	return err
}

// ReadFrame reads one frame, returning its type and body. The body is
// freshly allocated and owned by the caller. A clean end of stream before
// the frame starts is io.EOF; a stream that ends inside a frame is
// io.ErrUnexpectedEOF, because it is corrupt, not done.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 1 {
		return 0, nil, ErrTruncatedFrame
	}
	if n > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	if _, err := io.ReadFull(r, hdr[4:5]); err != nil {
		return 0, nil, midFrame(err)
	}
	body := make([]byte, n-1)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, midFrame(err)
	}
	return hdr[4], body, nil
}

func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// AppendU16 appends v big-endian.
func AppendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }

// AppendU32 appends v big-endian.
func AppendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

// AppendU64 appends v big-endian.
func AppendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// AppendI64 appends v big-endian, two's complement.
func AppendI64(b []byte, v int64) []byte { return AppendU64(b, uint64(v)) }

// AppendF64 appends v's IEEE 754 bits big-endian.
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// Reader cursors over a frame body, latching the first underflow so callers
// can chain reads and check the error once, in Done. After a failure every
// read returns the zero value.
type Reader struct {
	b   []byte
	bad bool
}

// NewReader returns a Reader over body.
func NewReader(body []byte) Reader { return Reader{b: body} }

// Len is how many unread bytes remain.
func (r *Reader) Len() int { return len(r.b) }

// Fail latches a failure the caller detected, such as an unknown tag.
func (r *Reader) Fail() { r.bad = true }

// Take returns the next n bytes, aliasing the body, or nil when fewer
// remain.
func (r *Reader) Take(n int) []byte {
	if r.bad || n < 0 || len(r.b) < n {
		r.bad = true
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	v := r.Take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	v := r.Take(2)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint16(v)
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	v := r.Take(4)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint32(v)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	v := r.Take(8)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

// I64 reads a big-endian two's-complement int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a big-endian IEEE 754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Str16 reads a string behind a uint16 length.
func (r *Reader) Str16() string {
	return string(r.Take(int(r.U16())))
}

// Bytes32 reads a byte string behind a uint32 length, copied out of the
// body so the caller owns it.
func (r *Reader) Bytes32() []byte {
	v := r.Take(int(r.U32()))
	if v == nil {
		return nil
	}
	return append([]byte(nil), v...)
}

// Done reports whether the body parsed cleanly and completely. Trailing
// bytes are rejected: a frame that says more than its type allows is as
// corrupt as one that says less.
func (r *Reader) Done() error {
	if r.bad {
		return ErrTruncatedFrame
	}
	if len(r.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes in frame body", len(r.b))
	}
	return nil
}
