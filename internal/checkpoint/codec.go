package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The payload codec is a deliberately tiny deterministic binary format:
// little-endian fixed-width integers, IEEE-754 bit patterns for floats, and
// length-prefixed strings and slices. Two properties matter and are pinned
// by tests:
//
//   - Encoding the same logical state twice produces identical bytes (no
//     map-iteration order, no pointer identity, no timestamps), so a
//     checkpoint digest is a stable fingerprint of the learner state.
//   - Decoding is total: any byte string either decodes or fails with an
//     error — never a panic and never an unbounded allocation — so the
//     container can hand untrusted payloads to learner decoders safely.

// Encoder accumulates a deterministic binary payload.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty Encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends an int64 as its two's-complement uint64 bits.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 as its IEEE-754 bit pattern. NaNs round-trip
// bit-exactly, which is what "byte-identical restart" requires.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// F32 appends a float32 as its IEEE-754 bit pattern. Introduced with
// container version 2, when the nn backend moved to float32 storage: weight
// payloads serialize the exact bits the kernels compute with, so a saved and
// restored run is byte-identical with no widen/narrow round trip.
func (e *Encoder) F32(v float32) { e.U32(math.Float32bits(v)) }

// String appends a length-prefixed UTF-8 string (max 64 KiB).
func (e *Encoder) String(s string) {
	if len(s) > math.MaxUint16 {
		panic("checkpoint: string too long to encode")
	}
	e.buf = binary.LittleEndian.AppendUint16(e.buf, uint16(len(s)))
	e.buf = append(e.buf, s...)
}

// Floats32 appends a length-prefixed []float32.
func (e *Encoder) Floats32(xs []float32) {
	e.U32(uint32(len(xs)))
	for _, x := range xs {
		e.F32(x)
	}
}

// Decoder reads a payload written by Encoder. Errors are sticky: after the
// first failure every subsequent read returns the zero value and Err()
// reports the original cause, so decode sequences can run unchecked and
// validate once at the end.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder wraps data for reading.
func NewDecoder(data []byte) *Decoder { return &Decoder{b: data} }

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

// fail records the first error.
func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// take returns the next n bytes, or nil after recording a truncation error.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Remaining() < n {
		d.fail("checkpoint: payload truncated at offset %d (need %d bytes, have %d)", d.off, n, d.Remaining())
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte as a bool, rejecting values other than 0 and 1.
func (d *Decoder) Bool() bool {
	switch v := d.U8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("checkpoint: invalid bool byte %d", v)
		return false
	}
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int64 into an int.
func (d *Decoder) Int() int { return int(d.I64()) }

// F64 reads a float64 bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// F32 reads a float32 bit pattern.
func (d *Decoder) F32() float32 { return math.Float32frombits(d.U32()) }

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	b := d.take(2)
	if b == nil {
		return ""
	}
	n := int(binary.LittleEndian.Uint16(b))
	s := d.take(n)
	if s == nil {
		return ""
	}
	return string(s)
}

// Count validates a length prefix against the bytes remaining, assuming each
// element occupies at least elemSize bytes. This bounds allocations on
// corrupt or adversarial input: a forged count can never make the decoder
// allocate more than the payload it arrived in. Composite decoders (learner
// state, transition buffers) use it before allocating their slices.
func (d *Decoder) Count(n uint32, elemSize int) (int, bool) {
	if d.err != nil {
		return 0, false
	}
	if int64(n)*int64(elemSize) > int64(d.Remaining()) {
		d.fail("checkpoint: implausible element count %d at offset %d", n, d.off)
		return 0, false
	}
	return int(n), true
}

// Floats32 reads a length-prefixed []float32. A nil slice encodes/decodes
// as length zero; decoding returns nil for length zero, so
// encode(decode(x)) is byte-stable.
func (d *Decoder) Floats32() []float32 {
	n, ok := d.Count(d.U32(), 4)
	if !ok || n == 0 {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = d.F32()
	}
	if d.err != nil {
		return nil
	}
	return out
}
