package stream

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// TestDrainInOrder: items arrive at the consumer strictly in index order,
// exactly once, at every worker count.
func TestDrainInOrder(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 2, 3, 8} {
		eng := Start(n, Options{Workers: workers}, func(lane int) ProduceFunc {
			return func(idx int) ([]byte, error) {
				return []byte(fmt.Sprintf("item-%d", idx)), nil
			}
		})
		var got []int
		err := eng.Drain(func(it Item) error {
			if string(it.Blob) != fmt.Sprintf("item-%d", it.Idx) {
				t.Fatalf("workers=%d: item %d carries blob %q", workers, it.Idx, it.Blob)
			}
			got = append(got, it.Idx)
			return nil
		})
		eng.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: consumed %d of %d", workers, len(got), n)
		}
		for i, idx := range got {
			if idx != i {
				t.Fatalf("workers=%d: position %d got index %d", workers, i, idx)
			}
		}
	}
}

// TestBackpressureWindow: no more than QueueDepth items are ever dispatched
// beyond the consumer's progress — the slot semaphore bounds the in-flight
// window even when the consumer is slow.
func TestBackpressureWindow(t *testing.T) {
	const n, depth = 64, 4
	var produced, consumed atomic.Int64
	maxAhead := int64(0)
	eng := Start(n, Options{Workers: 3, QueueDepth: depth}, func(lane int) ProduceFunc {
		return func(idx int) ([]byte, error) {
			produced.Add(1)
			return []byte{byte(idx)}, nil
		}
	})
	err := eng.Drain(func(it Item) error {
		if ahead := produced.Load() - consumed.Load(); ahead > maxAhead {
			maxAhead = ahead
		}
		consumed.Add(1)
		return nil
	})
	eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if maxAhead > depth {
		t.Fatalf("in-flight window reached %d, QueueDepth %d", maxAhead, depth)
	}
}

// TestProducerErrorSurfacesInOrder: a failing index aborts the drain with
// the consumer's wrapped error, and the engine shuts down cleanly.
func TestProducerErrorSurfacesInOrder(t *testing.T) {
	boom := errors.New("boom")
	eng := Start(32, Options{Workers: 4}, func(lane int) ProduceFunc {
		return func(idx int) ([]byte, error) {
			if idx == 7 {
				return nil, boom
			}
			return []byte{byte(idx)}, nil
		}
	})
	last := -1
	err := eng.Drain(func(it Item) error {
		if it.Err != nil {
			return fmt.Errorf("item %d: %w", it.Idx, it.Err)
		}
		last = it.Idx
		return nil
	})
	eng.Close()
	if !errors.Is(err, boom) {
		t.Fatalf("drain error = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "item 7") {
		t.Fatalf("error %q does not name the failing index", err)
	}
	if last != 6 {
		t.Fatalf("consumed through index %d before the failure, want 6", last)
	}
}

// TestConsumerErrorAborts: the consumer's own error stops the pipeline
// without consuming later items.
func TestConsumerErrorAborts(t *testing.T) {
	stop := errors.New("stop")
	eng := Start(32, Options{Workers: 2}, func(lane int) ProduceFunc {
		return func(idx int) ([]byte, error) { return []byte{byte(idx)}, nil }
	})
	seen := 0
	err := eng.Drain(func(it Item) error {
		if it.Idx == 5 {
			return stop
		}
		seen++
		return nil
	})
	eng.Close()
	if !errors.Is(err, stop) {
		t.Fatalf("drain error = %v, want stop", err)
	}
	if seen != 5 {
		t.Fatalf("consumed %d items before aborting, want 5", seen)
	}
}

// TestPerLaneProducerState: newProducer runs once per lane and its closure
// state is lane-private (the engine's contract for reusable packers).
func TestPerLaneProducerState(t *testing.T) {
	const workers = 4
	var setups atomic.Int64
	eng := Start(200, Options{Workers: workers}, func(lane int) ProduceFunc {
		setups.Add(1)
		calls := 0 // lane-private: no synchronization needed if the contract holds
		return func(idx int) ([]byte, error) {
			calls++
			return []byte{byte(lane), byte(calls)}, nil
		}
	})
	err := eng.Drain(func(it Item) error { return nil })
	eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if setups.Load() != workers {
		t.Fatalf("newProducer ran %d times, want %d", setups.Load(), workers)
	}
}

// TestNormalizedDefaults mirrors the writer's historical normalization:
// QueueDepth floor is Workers+1 so the window always exceeds the lanes.
func TestNormalizedDefaults(t *testing.T) {
	o := Options{Workers: 4}.normalized()
	if o.QueueDepth != 8 {
		t.Fatalf("QueueDepth = %d, want 2×Workers = 8", o.QueueDepth)
	}
	o = Options{Workers: 4, QueueDepth: 3}.normalized()
	if o.QueueDepth != 5 {
		t.Fatalf("QueueDepth = %d, want floor Workers+1 = 5", o.QueueDepth)
	}
	if o.ProduceStage != "compress" || consumeStage != "drain" || dispatchStage != "dispatch" {
		t.Fatalf("default stages = %q/%q/%q", o.ProduceStage, consumeStage, dispatchStage)
	}
}

// TestCloseIdempotent: Close after Drain, twice, is safe.
func TestCloseIdempotent(t *testing.T) {
	eng := Start(4, Options{Workers: 2}, func(lane int) ProduceFunc {
		return func(idx int) ([]byte, error) { return nil, nil }
	})
	if err := eng.Drain(func(Item) error { return nil }); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	eng.Close()
}
