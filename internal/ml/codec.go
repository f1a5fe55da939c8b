package ml

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The little-endian primitives of the model codec. Every model family
// persists through an AppendBinary/UnmarshalBinary pair built on these
// (see internal/snapstore): fixed-width integers, floats as their IEEE
// bits (so a round-trip is bit-exact, NaN payloads included) and
// u32-count-prefixed float vectors.

// AppendU32 appends v little-endian.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU64 appends v little-endian.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendInt appends v as a little-endian int64.
func AppendInt(b []byte, v int) []byte { return AppendU64(b, uint64(int64(v))) }

// AppendF64 appends v's IEEE 754 bits little-endian.
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendF64s appends a u32 count followed by the values' bits.
func AppendF64s(b []byte, vs []float64) []byte {
	b = AppendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = AppendF64(b, v)
	}
	return b
}

// AppendString appends a u32 length followed by the bytes.
func AppendString(b []byte, s string) []byte {
	b = AppendU32(b, uint32(len(s)))
	return append(b, s...)
}

// ErrCodecTruncated marks encoded bytes that end before the value they
// announce, including a count larger than the remaining bytes could
// hold.
var ErrCodecTruncated = errors.New("ml: encoded value truncated")

// Decoder reads the codec's primitives from a byte slice. The first
// failure sticks: later reads return zero values, and Err reports it,
// so a decoder can read a whole record and check once.
//
// Decoding is bounded by its input: Count refuses any count whose
// elements could not fit in the bytes that remain, so a hostile count
// never sizes an allocation. Nothing a Decoder returns aliases its
// input except Bytes.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder reads from b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first failure, if any.
func (d *Decoder) Err() error { return d.err }

// Fail records err as the decoder's failure unless one is already
// recorded. Callers use it for semantic checks (a bad enum, a link out
// of range) so they surface through the same Err.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
		d.b = nil
	}
}

// Failf is Fail with a formatted error.
func (d *Decoder) Failf(format string, args ...any) { d.Fail(fmt.Errorf(format, args...)) }

// Finish returns Err, or an error when unread bytes remain.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.b) > 0 {
		return fmt.Errorf("ml: %d trailing bytes after the encoded value", len(d.b))
	}
	return d.err
}

// Bytes returns the next n bytes. The slice aliases the input.
func (d *Decoder) Bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b) {
		d.Fail(ErrCodecTruncated)
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if b := d.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	if b := d.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if b := d.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Int reads an int written by AppendInt, failing when it does not fit
// this platform's int.
func (d *Decoder) Int() int {
	v := int64(d.U64())
	if int64(int(v)) != v {
		d.Failf("ml: encoded int %d overflows int", v)
		return 0
	}
	return int(v)
}

// F64 reads a float written by AppendF64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a bool written by AppendBool; any byte but 0 or 1 fails.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.Failf("ml: encoded bool is neither 0 nor 1")
		return false
	}
}

// Count reads a u32 element count and checks that count elements of
// at least minSize bytes each fit in the unread bytes. Every decoder
// sizes its allocations from counts read this way.
func (d *Decoder) Count(minSize int) int {
	n := int(d.U32())
	if d.err == nil && minSize > 0 && n > len(d.b)/minSize {
		d.Fail(ErrCodecTruncated)
		return 0
	}
	return n
}

// F64s reads a vector written by AppendF64s into a fresh slice; an
// empty vector decodes to nil.
func (d *Decoder) F64s() []float64 {
	n := d.Count(8)
	if n == 0 {
		return nil
	}
	raw := d.Bytes(8 * n)
	if raw == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

// String reads a string written by AppendString (a copy).
func (d *Decoder) String() string {
	n := d.Count(1)
	return string(d.Bytes(n))
}
