// Package par provides the tiny work-distribution primitive shared by the
// parallel execution engines inside the sz and zfp codecs and the chunked
// container: run n independent items across at most w goroutines. Work is
// handed out through an atomic counter rather than pre-partitioned, so
// uneven item costs (a hard-to-compress slab next to an all-zero one) still
// balance across workers.
package par

import (
	"sync"
	"sync/atomic"
)

// Run invokes fn(i) once for every i in [0,n), fanning the calls across at
// most workers goroutines. fn must be safe for concurrent use when workers
// exceeds 1. With workers <= 1 (or a single item) every call runs on the
// calling goroutine, so serial paths pay no scheduling or allocation cost.
// Run returns only after every call has completed.
func Run(n, workers int, fn func(i int)) {
	RunWorker(n, workers, func(_, i int) { fn(i) })
}

// RunWorker is Run, but fn additionally receives the stable index (in
// [0,workers)) of the goroutine making the call, so callers can keep
// per-worker state — reusable codec handles, scratch buffers — without
// locking. On the serial path the worker index is always 0.
func RunWorker(n, workers int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// Grow returns s with n elements, keeping the ones it has: s resliced when it
// has the capacity, a longer copy otherwise.
func Grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	g := make([]T, n)
	copy(g, s[:cap(s)])
	return g
}

// Lanes is the per-worker scratch of a RunWorker call, kept across calls: one
// L per worker index, created the first time that worker asks for it. Memory
// scales with the worker count, never with the item count.
type Lanes[L any] struct{ lanes []*L }

// SizeTo sets the table to workers entries, keeping the lanes it has.
func (t *Lanes[L]) SizeTo(workers int) { t.lanes = Grow(t.lanes, workers) }

// Lane returns worker w's scratch. A worker index belongs to one goroutine
// for the length of a RunWorker call, so creating it here needs no lock.
func (t *Lanes[L]) Lane(w int) *L {
	if t.lanes[w] == nil {
		t.lanes[w] = new(L)
	}
	return t.lanes[w]
}

// All returns the table as it stands; entries no worker has asked for are nil.
func (t *Lanes[L]) All() []*L { return t.lanes }
