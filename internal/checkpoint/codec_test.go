package checkpoint

import (
	"math"
	"reflect"
	"testing"
)

// TestCodecRoundTrip pins the wire behavior of every primitive: what the
// Encoder writes, the Decoder reads back exactly, in order.
func TestCodecRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.U8(7)
	e.Bool(true)
	e.Bool(false)
	e.U32(0xdeadbeef)
	e.U64(1 << 60)
	e.I64(-42)
	e.Int(-1)
	e.F64(3.14159)
	e.F64(math.Inf(-1))
	e.String("fairmove")
	e.String("")
	e.Floats32([]float32{1, -2.5, 0})
	e.Floats32(nil)

	d := NewDecoder(e.Bytes())
	if got := d.U8(); got != 7 {
		t.Errorf("U8 = %d, want 7", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := d.U64(); got != 1<<60 {
		t.Errorf("U64 = %d", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d, want -42", got)
	}
	if got := d.Int(); got != -1 {
		t.Errorf("Int = %d, want -1", got)
	}
	if got := d.F64(); got != 3.14159 {
		t.Errorf("F64 = %v", got)
	}
	if got := d.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 = %v, want -Inf", got)
	}
	if got := d.String(); got != "fairmove" {
		t.Errorf("String = %q", got)
	}
	if got := d.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	if got := d.Floats32(); !reflect.DeepEqual(got, []float32{1, -2.5, 0}) {
		t.Errorf("Floats32 = %v", got)
	}
	if got := d.Floats32(); got != nil {
		t.Errorf("nil Floats32 decoded to %v", got)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if d.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", d.Remaining())
	}
}

// TestCodecNaNBitExact: byte-identical restart requires NaN payloads to
// survive a round trip with their exact bit pattern, not just "some NaN".
func TestCodecNaNBitExact(t *testing.T) {
	pattern := uint64(0x7ff8dead_beef0001)
	e := NewEncoder()
	e.F64(math.Float64frombits(pattern))
	d := NewDecoder(e.Bytes())
	if got := math.Float64bits(d.F64()); got != pattern {
		t.Errorf("NaN bits = %#x, want %#x", got, pattern)
	}
}

// TestCodecEncodeDecodeByteStable: decode then re-encode must reproduce the
// original bytes, including the nil-vs-empty slice edge that would otherwise
// break checkpoint digests.
func TestCodecEncodeDecodeByteStable(t *testing.T) {
	e := NewEncoder()
	e.Floats32([]float32{})
	e.Floats32([]float32{1})
	e.Floats32(nil)
	orig := append([]byte(nil), e.Bytes()...)

	d := NewDecoder(orig)
	a, b, c := d.Floats32(), d.Floats32(), d.Floats32()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	e2 := NewEncoder()
	e2.Floats32(a)
	e2.Floats32(b)
	e2.Floats32(c)
	if !reflect.DeepEqual(e2.Bytes(), orig) {
		t.Errorf("re-encode differs: %x vs %x", e2.Bytes(), orig)
	}
}

// TestDecoderRejectsBadBool: any byte other than 0/1 is corruption, not a
// truthy value.
func TestDecoderRejectsBadBool(t *testing.T) {
	d := NewDecoder([]byte{2})
	d.Bool()
	if d.Err() == nil {
		t.Error("Bool(2) did not error")
	}
}

// TestDecoderStickyError: the first failure freezes the decoder; later reads
// return zero values and Err keeps reporting the original cause.
func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	d.U64() // truncated
	first := d.Err()
	if first == nil {
		t.Fatal("truncated U64 did not error")
	}
	if got := d.U32(); got != 0 {
		t.Errorf("read after error = %d, want 0", got)
	}
	if d.Err() != first {
		t.Errorf("Err changed after subsequent reads: %v", d.Err())
	}
}

// TestDecoderCountBoundsAllocation: a forged length prefix can never make the
// decoder allocate more than the payload that carried it.
func TestDecoderCountBoundsAllocation(t *testing.T) {
	e := NewEncoder()
	e.U32(math.MaxUint32) // claims 4 billion floats
	d := NewDecoder(e.Bytes())
	if got := d.Floats32(); got != nil {
		t.Errorf("forged count decoded to %d floats", len(got))
	}
	if d.Err() == nil {
		t.Error("implausible count did not error")
	}

	// A plausible count that still exceeds the remaining bytes also fails.
	e2 := NewEncoder()
	e2.U32(3)
	e2.F32(1) // only one of three elements present
	d2 := NewDecoder(e2.Bytes())
	if d2.Floats32() != nil || d2.Err() == nil {
		t.Error("truncated slice did not fail closed")
	}
}

// TestDecoderTruncationMidSlice: errors inside a slice body surface through
// the sticky error, and the partial slice is discarded.
func TestDecoderTruncationMidSlice(t *testing.T) {
	e := NewEncoder()
	e.Floats32([]float32{1, 2, 3})
	data := e.Bytes()[:len(e.Bytes())-1]
	d := NewDecoder(data)
	if got := d.Floats32(); got != nil {
		t.Errorf("truncated Floats32 returned %v", got)
	}
	if d.Err() == nil {
		t.Error("truncated Floats32 did not error")
	}
}
