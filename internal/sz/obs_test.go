package sz

import (
	"math"
	"sync"
	"testing"
	"time"

	"lcpio/internal/fpdata"
	"lcpio/internal/lossless"
	"lcpio/internal/obs"
)

func installObs(t *testing.T) *obs.Registry {
	t.Helper()
	r := obs.NewRegistry()
	prev := obs.Use(r)
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
	r := obs.NewRegistry()
	classes := make(map[string]int64)
	var mu sync.Mutex
	r.SetEnergyModel(func(class string, bytes int64, _ time.Duration) float64 {
		mu.Lock()
		classes[class] = bytes
		mu.Unlock()
		return 1
	})
	prev := obs.Use(r)
	t.Cleanup(func() { obs.Use(prev) })

	dims := []int{32, 32}
	data := make([]float32, dims[0]*dims[1])
	for i := range data {
		data[i] = float32(i % 17)
	}
	blob, err := NewHandle(0).Compress(data, dims, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewHandle(0).Decompress(blob); err != nil {
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

// TestLosslessStageCounters: the stage's decision is visible per partition.
// A noisy particle field stores every partition and a smooth climate field
// deflates every one; the byte counters are the stage's input and output, and
// each deflated partition the gate had an estimate for leaves one
// estimate-minus-achieved residual (CESM's short last partition has none).
func TestLosslessStageCounters(t *testing.T) {
	for _, tc := range []struct {
		dataset    string
		rel        float64
		wantStored bool
	}{{"HACC", 1e-3, true}, {"CESM-ATM", 1e-2, false}} {
		r := installObs(t)
		spec, _ := fpdata.Lookup(tc.dataset, "")
		f := fpdata.Generate(spec, spec.ScaleFor(256<<10), 3)
		lo, hi := f.Range()
		stream, err := NewHandle(2).Compress(f.Data, f.Dims, tc.rel*float64(hi-lo))
		if err != nil {
			t.Fatal(err)
		}
		parts := partitionPayloads(t, stream)
		var outBytes, inBytes, estimated int
		for _, p := range parts {
			raw, err := lossless.Decompress(p)
			if err != nil {
				t.Fatal(err)
			}
			outBytes += len(p)
			inBytes += len(raw)
			if _, asked := lossless.EntropyGain(raw); asked && !lossless.Stored(p) {
				estimated++
			}
		}
		counter := func(name string) int {
			v, _ := r.CounterValue(name)
			return int(v)
		}
		stored, deflated := counter("lcpio_sz_lossless_stored_partitions_total"), counter("lcpio_sz_lossless_deflated_partitions_total")
		if want := storedPartitions(parts); stored != want || stored+deflated != len(parts) {
			t.Fatalf("%s: counters say %d stored + %d deflated, the stream has %d stored of %d", tc.dataset, stored, deflated, want, len(parts))
		}
		if tc.wantStored != (stored == len(parts)) || tc.wantStored == (deflated == len(parts)) {
			t.Fatalf("%s: %d stored, %d deflated of %d; want all stored %v, else all deflated", tc.dataset, stored, deflated, len(parts), tc.wantStored)
		}
		if in, out := counter("lcpio_sz_lossless_in_bytes_total"), counter("lcpio_sz_lossless_out_bytes_total"); in != inBytes || out != outBytes {
			t.Fatalf("%s: byte counters %d -> %d, the partitions hold %d -> %d", tc.dataset, in, out, inBytes, outBytes)
		}
		if tc.wantStored && outBytes != inBytes+8*len(parts) {
			t.Fatalf("%s: stored partitions cost %d bytes over their input, want 8 each", tc.dataset, outBytes-inBytes)
		}
		h := r.Histogram("lcpio_sz_lossless_estimate_residual")
		if int(h.Count()) != estimated || (estimated == 0) == (deflated > 0) {
			t.Fatalf("%s: %d residuals observed, want one for each of the %d deflated partitions (of %d) the gate estimated",
				tc.dataset, h.Count(), estimated, deflated)
		}
		if estimated > 0 && math.Abs(h.Sum()/float64(estimated)) > 0.15 {
			t.Fatalf("%s: mean estimate residual %.3f, the byte estimate should be within 15 points of deflate", tc.dataset, h.Sum()/float64(estimated))
		}
	}
}
