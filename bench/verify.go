package main

import (
	"fmt"
	"math"

	"lcpio/internal/ckpt"
)

// tally counts operations: every dump, restore and verification is one.
type tally struct {
	Attempted int
	Failed    int
	Notes     []string
}

func (t *tally) op(what string, err error) {
	t.Attempted++
	if err != nil {
		t.Failed++
		t.Notes = append(t.Notes, what+": "+err.Error())
	}
}

// boundSlack is the relative headroom `lcpio ckpt restore -check` gives the
// comparison for float rounding.
const boundSlack = 1.0000001

// withinBounds compares a restored set with its input element by element.
func withinBounds(want ckpt.Set, got *ckpt.Restored) error {
	for _, f := range want.Fields {
		rf := got.Field(f.Name)
		if rf == nil {
			return fmt.Errorf("field %q missing from restore", f.Name)
		}
		for r, orig := range f.Data {
			if r >= len(rf.Data) || len(rf.Data[r]) != len(orig) {
				return fmt.Errorf("field %q rank %d: restored shape differs", f.Name, r)
			}
			for i, x := range rf.Data[r] {
				if d := math.Abs(float64(orig[i]) - float64(x)); !(d <= f.ErrorBound*boundSlack) {
					return fmt.Errorf("field %q rank %d elem %d: error %g exceeds bound %g",
						f.Name, r, i, d, f.ErrorBound)
				}
			}
		}
	}
	return nil
}

// sameBytes holds every cycle to the first one's stored size: identical
// inputs must produce byte-identical sets.
func sameBytes(ref, c *cycleOut) error {
	if c.StoredBytes != ref.StoredBytes || c.PayloadBytes != ref.PayloadBytes {
		return fmt.Errorf("stored %d B (payload %d B), first cycle stored %d B (payload %d B)",
			c.StoredBytes, c.PayloadBytes, ref.StoredBytes, ref.PayloadBytes)
	}
	return nil
}
