package par

import (
	"sync/atomic"
	"testing"
)

func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 8, 100} {
		for _, n := range []int{0, 1, 3, 17, 256} {
			hits := make([]int32, n)
			Run(n, workers, func(i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestRunSerialOnCallingGoroutine(t *testing.T) {
	// With workers <= 1 the calls must run inline and in order.
	var order []int
	Run(5, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order broken: %v", order)
		}
	}
}

func TestLanesKeepScratchAcrossResizes(t *testing.T) {
	type scratch struct{ buf []byte }
	var lanes Lanes[scratch]
	if lanes.All() != nil {
		t.Fatal("zero Lanes holds a table")
	}
	lanes.SizeTo(2)
	l1 := lanes.Lane(1)
	l1.buf = append(l1.buf, 7)
	if lanes.All()[0] != nil {
		t.Error("a lane no worker asked for was created")
	}
	lanes.SizeTo(1)
	lanes.SizeTo(4)
	if lanes.Lane(1) != l1 || len(lanes.All()) != 4 {
		t.Error("resizing dropped a lane's scratch")
	}
	var hits [4]int
	RunWorker(64, 4, func(w, _ int) {
		l := lanes.Lane(w)
		l.buf = append(l.buf[:0], byte(w))
		hits[w]++
	})
	for w, ln := range lanes.All() {
		if hits[w] > 0 && (ln == nil || ln.buf[0] != byte(w)) {
			t.Errorf("worker %d did not get its own lane", w)
		}
	}
}

func TestGrowKeepsElements(t *testing.T) {
	s := Grow([]int{1, 2, 3}[:2], 5)
	if len(s) != 5 || s[0] != 1 || s[1] != 2 || s[2] != 3 || s[4] != 0 {
		t.Errorf("Grow = %v", s)
	}
	if g := Grow(s, 2); len(g) != 2 || &g[0] != &s[0] {
		t.Error("Grow reallocated a slice with the capacity")
	}
}
