package retry

import (
	"math"
	"testing"
)

func TestBackoffCappedExponential(t *testing.T) {
	p := Policy{MaxAttempts: 5, Base: 5e-3, Max: 500e-3}
	want := []float64{5e-3, 10e-3, 20e-3, 40e-3, 80e-3, 160e-3, 320e-3, 500e-3, 500e-3}
	for i, w := range want {
		if got := p.Backoff(i + 1); math.Abs(got-w) > 1e-12 {
			t.Fatalf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := p.Backoff(0); got != p.Base {
		t.Fatalf("Backoff(0) = %v, want base %v", got, p.Base)
	}
}

func TestConstantDelayShape(t *testing.T) {
	// Max == Base is the NFS retransmit-timeout shape: no growth.
	p := Policy{MaxAttempts: 16, Base: 20e-3, Max: 20e-3}
	for a := 1; a <= 16; a++ {
		if got := p.Backoff(a); got != 20e-3 {
			t.Fatalf("Backoff(%d) = %v, want constant 20ms", a, got)
		}
	}
}

func TestNormalized(t *testing.T) {
	d := Policy{MaxAttempts: 5, Base: 5e-3, Max: 500e-3}
	p := Policy{}.Normalized(d)
	if p != d {
		t.Fatalf("zero policy normalized to %+v, want defaults %+v", p, d)
	}
	p = Policy{MaxAttempts: 2}.Normalized(d)
	if p.MaxAttempts != 2 || p.Base != d.Base || p.Max != d.Max {
		t.Fatalf("partial policy normalized to %+v", p)
	}
}

func TestExhausted(t *testing.T) {
	p := Policy{MaxAttempts: 3}
	if p.Exhausted(2) {
		t.Fatal("exhausted at 2 of 3")
	}
	if !p.Exhausted(3) {
		t.Fatal("not exhausted at 3 of 3")
	}
}
