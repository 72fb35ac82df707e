package sz

import (
	"math"
	"sync"
	"testing"
	"time"

	"lcpio/internal/obs"
)

func installObs(t *testing.T) *obs.Registry {
	t.Helper()
	prev := obs.Active()
	r := obs.NewRegistry()
	obs.Use(r)
	t.Cleanup(func() { obs.Use(prev) })
	return r
}

// TestCompressOccupancyNamesSerializedStage is the worker-scaling acceptance
// check: an 8-worker compression of a single-partition array cannot scale
// (one partition = one busy worker), and the occupancy report must say so —
// low efficiency, seven clocks parked in idle wait-input, and a named
// serialized stage from the partition pipeline.
func TestCompressOccupancyNamesSerializedStage(t *testing.T) {
	r := installObs(t)

	dims := []int{64, 64} // far below partTargetElems: exactly one partition
	data := make([]float32, dims[0]*dims[1])
	for i := range data {
		data[i] = float32(math.Sin(float64(i) / 37))
	}
	if _, err := NewHandle(8).Compress(data, dims, 1e-3); err != nil {
		t.Fatal(err)
	}

	snap := r.Snapshot()
	p, ok := snap.Pipelines["sz.compress"]
	if !ok {
		t.Fatal("sz.compress pipeline missing from snapshot")
	}
	if p.Workers != 8 {
		t.Fatalf("pipeline workers = %d, want 8 (requested, not clamped)", p.Workers)
	}
	known := map[string]bool{
		"predict_quantize": true, "huffman_build": true,
		"huffman_encode": true, "lossless": true,
	}
	if !known[p.SerializedStage] {
		t.Fatalf("serialized stage = %q, want one of the partition stages", p.SerializedStage)
	}
	if p.Efficiency > 0.5 {
		t.Fatalf("efficiency = %v, want < 0.5 for a single-partition 8-wide run", p.Efficiency)
	}
	// The seven clamped-away workers idle for the whole wall.
	idle := p.Stages["idle"]
	if idle.WaitInputSeconds <= 0 {
		t.Fatalf("idle wait_input = %v, want > 0 (unused workers)", idle.WaitInputSeconds)
	}
	for _, stage := range []string{"predict_quantize", "huffman_build", "huffman_encode", "lossless"} {
		if st := p.Stages[stage]; st.Items != 1 || st.RunSeconds < 0 {
			t.Fatalf("stage %q occupancy wrong: %+v", stage, st)
		}
	}
	if p.Summary("sz.compress") == "" {
		t.Fatal("empty pipeline summary")
	}
}

// TestCompressWorkloadDeclared checks the span energy plumbing end to end
// inside sz: with an energy model installed, the top-level compress and
// decompress spans declare their raw-byte workloads and get priced.
func TestCompressWorkloadDeclared(t *testing.T) {
	prev := obs.Active()
	t.Cleanup(func() { obs.Use(prev) })
	r := obs.NewRegistry()
	classes := make(map[string]int64)
	var mu sync.Mutex
	r.SetEnergyModel(func(class string, bytes int64, _ time.Duration) float64 {
		mu.Lock()
		classes[class] = bytes
		mu.Unlock()
		return 1
	})
	obs.Use(r)

	dims := []int{32, 32}
	data := make([]float32, dims[0]*dims[1])
	for i := range data {
		data[i] = float32(i % 17)
	}
	blob, err := Compress(data, dims, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decompress(blob); err != nil {
		t.Fatal(err)
	}

	raw := int64(len(data)) * 4
	if classes["sz.compress"] != raw {
		t.Fatalf("sz.compress workload = %d bytes, want %d", classes["sz.compress"], raw)
	}
	if classes["sz.decompress"] != raw {
		t.Fatalf("sz.decompress workload = %d bytes, want %d", classes["sz.decompress"], raw)
	}
	snap := r.Snapshot()
	if j := snap.SpanTotals["sz.compress"].Joules; j != 1 {
		t.Fatalf("sz.compress joules = %v, want the model's 1", j)
	}
}
