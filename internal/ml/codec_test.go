package ml

import (
	"errors"
	"math"
	"testing"
)

// TestCodecPrimitivesRoundTrip: every primitive decodes to what was
// appended, floats bit for bit (a NaN payload and -0 included).
func TestCodecPrimitivesRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	vec := []float64{1.5, math.Copysign(0, -1), nan, math.Inf(-1)}
	var b []byte
	b = AppendU32(b, 0xdeadbeef)
	b = AppendU64(b, 1<<63|7)
	b = AppendInt(b, -42)
	b = AppendF64(b, nan)
	b = AppendBool(b, true)
	b = AppendF64s(b, vec)
	b = AppendF64s(b, nil)
	b = AppendString(b, "v07")

	d := NewDecoder(b)
	if got := d.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %x", got)
	}
	if got := d.U64(); got != 1<<63|7 {
		t.Errorf("U64 = %x", got)
	}
	if got := d.Int(); got != -42 {
		t.Errorf("Int = %d", got)
	}
	if got := d.F64(); math.Float64bits(got) != math.Float64bits(nan) {
		t.Errorf("F64 bits %x, want %x", math.Float64bits(got), math.Float64bits(nan))
	}
	if !d.Bool() {
		t.Error("Bool = false")
	}
	got := d.F64s()
	if len(got) != len(vec) {
		t.Fatalf("F64s decoded %d values, want %d", len(got), len(vec))
	}
	for i := range vec {
		if math.Float64bits(got[i]) != math.Float64bits(vec[i]) {
			t.Errorf("F64s[%d] bits %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(vec[i]))
		}
	}
	if got := d.F64s(); got != nil {
		t.Errorf("empty F64s = %v, want nil", got)
	}
	if got := d.String(); got != "v07" {
		t.Errorf("String = %q", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestDecoderRefusesWhatTheInputCannotHold: a count larger than the
// remaining bytes could hold fails before anything is allocated, the
// failure sticks, and Finish reports trailing bytes and bad bools.
func TestDecoderRefusesWhatTheInputCannotHold(t *testing.T) {
	lying := AppendU32(nil, math.MaxUint32) // a vector "of 4 billion floats"
	lying = AppendF64(lying, 1)
	d := NewDecoder(lying)
	if got := d.F64s(); got != nil || !errors.Is(d.Err(), ErrCodecTruncated) {
		t.Fatalf("lying count decoded %d values, err %v", len(got), d.Err())
	}
	if d.U64() != 0 || !errors.Is(d.Finish(), ErrCodecTruncated) {
		t.Fatal("the decoder kept reading after a failure")
	}

	if err := NewDecoder([]byte{1, 2}).Finish(); err == nil {
		t.Error("trailing bytes accepted")
	}
	d = NewDecoder([]byte{2})
	if d.Bool(); d.Err() == nil {
		t.Error("bool byte 2 accepted")
	}
}
