package wire

import (
	"errors"
	"math"
	"testing"
)

var errTest = errors.New("test: corrupt")

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUint32(b, 0xDEADBEEF)
	b = AppendUint64(b, 1<<40+7)
	b = AppendFloat64(b, 3.5)
	b = AppendUint32(b, math.Float32bits(-2.25))
	b = append(b, 'x', 'y')

	r := NewReader(b, errTest)
	if got := r.Uint32(); got != 0xDEADBEEF {
		t.Errorf("Uint32 = %#x", got)
	}
	if got := r.Uint64(); got != 1<<40+7 {
		t.Errorf("Uint64 = %d", got)
	}
	if got := r.Float64(); got != 3.5 {
		t.Errorf("Float64 = %v", got)
	}
	if got := r.Float32(); got != -2.25 {
		t.Errorf("Float32 = %v", got)
	}
	if got := string(r.Bytes(2)); got != "xy" {
		t.Errorf("Bytes = %q", got)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d", r.Remaining())
	}
	if r.Err() != nil {
		t.Errorf("Err = %v", r.Err())
	}
}

func TestOverrunLatchesCallerError(t *testing.T) {
	r := NewReader([]byte{1, 2}, errTest)
	if r.Uint32() != 0 {
		t.Error("short Uint32 should return 0")
	}
	if !errors.Is(r.Err(), errTest) {
		t.Errorf("Err = %v, want errTest", r.Err())
	}
	// Error is sticky: later reads keep returning zero values.
	if r.Uint64() != 0 || r.Bytes(1) != nil || r.Float64() != 0 {
		t.Error("reads after error must return zero values")
	}
	if !errors.Is(r.Err(), errTest) {
		t.Errorf("Err changed to %v", r.Err())
	}
}

func TestNegativeBytes(t *testing.T) {
	r := NewReader([]byte{1, 2, 3}, errTest)
	if r.Bytes(-1) != nil || r.Err() == nil {
		t.Error("negative Bytes length must error")
	}
}

func TestOffset(t *testing.T) {
	r := NewReader(make([]byte, 16), errTest)
	r.Uint32()
	r.Uint64()
	if r.Offset() != 12 {
		t.Errorf("Offset = %d, want 12", r.Offset())
	}
}
