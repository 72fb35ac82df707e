package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"lcpio/internal/advisor"
	"lcpio/internal/bitstream"
	"lcpio/internal/ckpt"
	"lcpio/internal/compress"
	"lcpio/internal/container"
	"lcpio/internal/dedup"
	"lcpio/internal/ec"
	"lcpio/internal/huffman"
	"lcpio/internal/lossless"
	"lcpio/internal/obs"
	"lcpio/internal/stats"
	"lcpio/internal/stream"
	"lcpio/internal/svc"
)

// The traced pass runs rounds of three cycles — plain, traced, telemetry on —
// so the two overheads are taken against a baseline from the same minutes
// of the same process, then one single-worker traced cycle whose dump is
// attributed layer by layer, then isolated single-thread calls into each
// layer's public functions on the same inputs.
const (
	minRounds = 3
	// isoTime is how long each isolated measurement repeats its call; the
	// median call is reported.
	isoTime = 100 * time.Millisecond
)

func runTraced(w workload, cfg config) (*runResult, error) {
	e, err := setUp(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()

	var plain, traced, withObs []*cycleOut
	rounds := minRounds
	if cfg.Smoke {
		rounds = 1
	}
	deadline := time.Now().Add(time.Duration(cfg.Seconds / 3 * float64(time.Second)))
	failed := false
	for r := 0; !failed && (r < rounds || time.Now().Before(deadline)); r++ {
		for mode, dst := range []*[]*cycleOut{&plain, &traced, &withObs} {
			e.rec.on.Store(mode == 1)
			if mode == 2 {
				obs.Use(obs.NewRegistry())
			}
			c, err := e.cycle()
			obs.Use(nil)
			e.rec.on.Store(false)
			if err != nil {
				failed = true
				break
			}
			*dst = append(*dst, c)
		}
	}
	var single *cycleOut
	if !failed {
		e.workers = 1
		e.rec.on.Store(true)
		single, err = e.cycle()
		e.rec.on.Store(false)
		e.workers = workers()
		if failed = err != nil; !failed {
			e.verifyCycle(single)
		}
	}
	if err := e.rec.writeFile(traceFile(cfg, w)); err != nil {
		return nil, err
	}
	res := &runResult{
		Workload: w.Name, Traced: true, Cycles: e.cycles,
		Attempted: e.tally.Attempted, Failed: e.tally.Failed, Notes: e.tally.Notes,
	}
	if failed {
		res.Cycles = 0
		return res, nil
	}

	l := &layers{e: e, ms: newMetricSet(perLayer), per: analyze(e.rec.snapshot()), minTime: isoTime}
	if cfg.Smoke {
		l.minTime = 0
	}
	l.overheads(plain, traced, withObs)
	l.boundaries(traced)
	l.model(traced[len(traced)-1])
	if err := l.isolated(single); err != nil {
		return nil, err
	}
	if miss := l.ms.missing(); len(miss) > 0 {
		return nil, fmt.Errorf("per-layer metrics never measured: %v", miss)
	}
	res.Metrics = l.ms.values
	return res, nil
}

// layers assembles the per-layer metric set of one traced run.
type layers struct {
	e       *env
	ms      *metricSet
	per     map[int]*cycleTrace
	minTime time.Duration
}

func (l *layers) put(name string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // a zero-length timing in -smoke; never in a measured run
	}
	l.ms.must(name, v, n)
}

func dumpSeconds(cs []*cycleOut) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = c.DumpS
	}
	return out
}

// overheads compares the fastest dump of each kind of cycle, for the reason
// runWorkload gives for dump_mbps.
func (l *layers) overheads(plain, traced, withObs []*cycleOut) {
	base := slices.Min(dumpSeconds(plain))
	l.put("trace_overhead_pct", 100*(slices.Min(dumpSeconds(traced))/base-1), len(traced))
	l.put("obs.on_overhead_pct", 100*(slices.Min(dumpSeconds(withObs))/base-1), len(withObs))
}

// boundaries reports what the socket and medium wrappers saw during the
// traced cycles. Counts and bytes are per cycle and repeat exactly; times
// are means over the traced cycles. svc metrics are 0 on the delta
// workload, which has no socket.
func (l *layers) boundaries(traced []*cycleOut) {
	n := len(traced)
	var putRTT []float64
	for _, c := range traced {
		if ct := l.per[c.Cycle]; ct != nil {
			putRTT = append(putRTT, ct.PutRTT...)
		}
	}
	// avg is the mean over the traced cycles of a value of one cycle.
	avg := func(name string, scale float64, of func(ct *cycleTrace, c *cycleOut) float64) {
		var sum float64
		for _, c := range traced {
			ct := l.per[c.Cycle]
			if ct == nil {
				ct = &cycleTrace{}
			}
			sum += of(ct, c)
		}
		l.put(name, scale*sum/float64(n), n)
	}
	avg("svc.frames_per_dump", 1, func(ct *cycleTrace, _ *cycleOut) float64 { return float64(ct.Frames) })
	avg("svc.wire_bytes_per_dump", 1, func(ct *cycleTrace, _ *cycleOut) float64 { return float64(ct.WireBytes) })
	avg("svc.open_rtt_ms", 1e3, func(ct *cycleTrace, _ *cycleOut) float64 { return ct.OpenRTT })
	l.put("svc.put_rtt_p50_ms", 1e3*quantile(putRTT, 0.50), len(putRTT))
	l.put("svc.put_rtt_p95_ms", 1e3*quantile(putRTT, 0.95), len(putRTT))
	avg("svc.write_block_s", 1, func(ct *cycleTrace, _ *cycleOut) float64 { return ct.WriteBlock })
	avg("svc.ack_wait_s", 1, func(ct *cycleTrace, _ *cycleOut) float64 { return ct.AckWait })
	avg("svc.close_rtt_ms", 1e3, func(ct *cycleTrace, _ *cycleOut) float64 { return ct.CloseRTT })
	avg("svc.restore_rtt_s", 1, func(ct *cycleTrace, _ *cycleOut) float64 { return ct.RestoreRTT })
	avg("svc.client_compute_s", 1, func(ct *cycleTrace, c *cycleOut) float64 {
		if l.e.w.Delta {
			return 0
		}
		return c.DumpS - ct.WriteBlock - ct.AckWait
	})
	avg("svc.admission_wait_us", 1e6, func(_ *cycleTrace, c *cycleOut) float64 { return c.AdmissionWaitS })
	avg("svc.wire_verified_chunks", 1, func(_ *cycleTrace, c *cycleOut) float64 { return float64(c.WireVerified) })

	avg("ckpt.medium_write_calls", 1, func(ct *cycleTrace, _ *cycleOut) float64 { return float64(ct.MedWriteCalls) })
	avg("ckpt.medium_write_bytes", 1, func(ct *cycleTrace, _ *cycleOut) float64 { return float64(ct.MedWriteBytes) })
	avg("ckpt.medium_write_s", 1, func(ct *cycleTrace, _ *cycleOut) float64 { return ct.MedWriteS })
	avg("ckpt.medium_read_calls", 1, func(ct *cycleTrace, _ *cycleOut) float64 { return float64(ct.MedReadCalls) })
	avg("ckpt.medium_read_bytes", 1, func(ct *cycleTrace, _ *cycleOut) float64 { return float64(ct.MedReadBytes) })
	avg("ckpt.medium_read_s", 1, func(ct *cycleTrace, _ *cycleOut) float64 { return ct.MedReadS })
	avg("ckpt.write_amp", 1, func(ct *cycleTrace, c *cycleOut) float64 {
		return float64(ct.MedWriteBytes) / float64(c.StoredBytes)
	})
	avg("ckpt.ec_encode_s", 1, func(_ *cycleTrace, c *cycleOut) float64 { return c.ECEncodeS })
	avg("ckpt.chunks_reconstructed", 1, func(_ *cycleTrace, c *cycleOut) float64 { return float64(c.Reconstructed) })
	avg("dedup.ref_share", 1, func(_ *cycleTrace, c *cycleOut) float64 { return c.RefShare })
}

// model reports the Eqn 2 outputs the system attached to one cycle.
func (l *layers) model(c *cycleOut) {
	l.put("machine.compress_j", c.CompressJ, 0)
	l.put("machine.transit_j", c.TransitJ, 0)
	l.put("machine.read_j", c.ReadJ, 0)
	l.put("machine.sim_dump_s", c.SimDumpS, 0)
	l.put("transit.wire_saved_s", c.WireSavedS, 0)
}

// timeIt calls fn in batches until minTime has passed and three batches are
// in (one in -smoke), and returns the median seconds per call and the number
// of batches.
func (l *layers) timeIt(batch int, fn func()) (float64, int) {
	var samples []float64
	floor := 3
	if l.minTime == 0 {
		floor = 1
	}
	start := time.Now()
	for len(samples) < floor || time.Since(start) < l.minTime {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		samples = append(samples, time.Since(t0).Seconds()/float64(batch))
	}
	return stats.Median(samples), len(samples)
}

// mallocs counts heap allocations of one warmed-up call.
func mallocs(fn func()) float64 {
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

func mbps(bytes int, seconds float64) float64 { return float64(bytes) / 1e6 / seconds }

// isolated measures each layer alone, one thread, on the workload's own
// inputs, and closes with the attribution of the single-worker dump.
func (l *layers) isolated(single *cycleOut) error {
	w := l.e.w
	f := l.e.set.Fields[0]
	data, dims, eb := f.Data[0], f.Dims, f.ErrorBound
	rankBytes := len(data) * 4

	// advisor
	var sk *advisor.Sketch
	var err error
	sketchS, n := l.timeIt(1, func() { sk, err = advisor.NewSketch(data, dims, advisor.SketchConfig{}) })
	if err != nil {
		return err
	}
	l.put("advisor.sketch_ms", 1e3*sketchS, n)
	var pred advisor.Prediction
	predictS, n := l.timeIt(100, func() { pred, err = sk.Predict(w.Codec, w.RelEB) })
	if err != nil {
		return err
	}
	l.put("advisor.predict_us", 1e6*predictS, n)
	ctrl, err := advisor.New(advisor.Config{})
	if err != nil {
		return err
	}
	decideS, n := l.timeIt(1, func() { _, err = ctrl.Decide(sk, advisor.Request{}) })
	if err != nil {
		return err
	}
	l.put("advisor.decide_ms", 1e3*decideS, n)

	// container: every rank packed once, one worker. The blobs feed the
	// ec, ckpt and stream measurements; the times are the codec+container
	// share of the single-worker dump.
	packer, err := container.NewPacker(w.Codec, container.Options{Parallelism: 1})
	if err != nil {
		return err
	}
	blobs := make([][]byte, ranks)
	var packTimes, unpackTimes []float64
	var payload float64
	for r := range blobs {
		t0 := time.Now()
		if blobs[r], err = packer.Pack(f.Data[r], dims, eb); err != nil {
			return err
		}
		t1 := time.Now()
		if _, _, err = container.Unpack(blobs[r], container.Options{Parallelism: 1}); err != nil {
			return err
		}
		packTimes = append(packTimes, t1.Sub(t0).Seconds())
		unpackTimes = append(unpackTimes, time.Since(t1).Seconds())
		payload += float64(len(blobs[r]))
	}
	// The ranks are realizations of one field: their median, times the rank
	// count, stands for the whole set without the odd descheduled call.
	packS, unpackS := ranks*stats.Median(packTimes), ranks*stats.Median(unpackTimes)
	l.put("advisor.ratio_rel_err", math.Abs(pred.Ratio-float64(l.e.raw)/payload)/(float64(l.e.raw)/payload), 0)
	handle, err := compress.NewHandle(w.Codec, 1)
	if err != nil {
		return err
	}
	pack1, _ := l.timeIt(1, func() { _, err = packer.Pack(data, dims, eb) })
	comp1, n := l.timeIt(1, func() { _, err = handle.Compress(data, dims, eb) })
	if err != nil {
		return err
	}
	l.put("container.pack_overhead_pct", 100*(pack1/comp1-1), n)
	l.put("container.unpack_mbps", mbps(int(l.e.raw), unpackS), ranks)
	statS, n := l.timeIt(100, func() { _, err = container.Stat(blobs[0]) })
	if err != nil {
		return err
	}
	l.put("container.stat_us", 1e6*statS, n)

	// codecs: both, so a change to one shows as no change on the other.
	codecRate := map[string]float64{}
	for _, name := range []string{"sz", "zfp"} {
		if codecRate[name], err = l.codec(name, f); err != nil {
			return err
		}
	}

	if err := l.entropy(data, eb); err != nil {
		return err
	}
	if err := l.scheduler(w, f, blobs[0]); err != nil {
		return err
	}

	// svc: ParseFrame on a PUT captured from the socket.
	if put := l.e.rec.firstPut; put != nil {
		parseS, n := l.timeIt(1000, func() { _, _, err = svc.ParseFrame(put) })
		if err != nil {
			return err
		}
		l.put("svc.parseframe_ns", 1e9*parseS, n)
	} else {
		l.put("svc.parseframe_ns", 0, 0)
	}

	// ckpt on a memory medium, one worker, against the bare pack/unpack sums.
	mem := ckpt.NewMemMedium()
	plainSet := l.e.set
	t0 := time.Now()
	if _, err := ckpt.Write(mem, plainSet, ckpt.WriteOptions{Workers: 1}); err != nil {
		return err
	}
	l.put("ckpt.write_overhead_pct", 100*(time.Since(t0).Seconds()/packS-1), 1)
	t0 = time.Now()
	if _, err := ckpt.Restore(mem, ckpt.RestoreOptions{Workers: 1}); err != nil {
		return err
	}
	l.put("ckpt.restore_overhead_pct", 100*(time.Since(t0).Seconds()/unpackS-1), 1)
	digestS, n := l.timeIt(1, func() { ckpt.Digest(blobs[0]) })
	l.put("ckpt.digest_mbps", mbps(len(blobs[0]), digestS), n)
	manifestS, n := l.timeIt(10, func() { _, err = ckpt.ReadManifest(mem) })
	if err != nil {
		return err
	}
	l.put("ckpt.readmanifest_us", 1e6*manifestS, n)
	t0 = time.Now()
	if _, err := ckpt.OpenBase(mem, nil, dedup.Params{}, ckpt.RestoreOptions{Workers: workers()}); err != nil {
		return err
	}
	l.put("ckpt.openbase_s", time.Since(t0).Seconds(), 1)

	// ec: the packed ranks as one k=8, m=2 stripe.
	coder, err := ec.New(ranks, parityRanks)
	if err != nil {
		return err
	}
	var parity [][]byte
	encS, n := l.timeIt(1, func() { parity, err = coder.Encode(blobs, 1) })
	if err != nil {
		return err
	}
	l.put("ec.encode_mbps", mbps(int(payload), encS), n)
	stripe := len(parity[0])
	l.put("ec.parity_overhead_pct", 100*float64(parityRanks*stripe)/payload, 0)
	shards := make([][]byte, 0, ranks+parityRanks)
	for _, b := range blobs {
		shards = append(shards, append(make([]byte, 0, stripe), b...)[:stripe])
	}
	shards = append(shards, parity...)
	recS, n := l.timeIt(1, func() {
		shards[lostRank] = nil
		err = coder.Reconstruct(shards, 1)
	})
	if err != nil {
		return err
	}
	l.put("ec.reconstruct_mbps", mbps(ranks*stripe, recS), n)

	// dedup: content-defined split and digests of rank 0's raw bytes.
	rawRank := make([]byte, 0, rankBytes)
	for _, x := range data {
		u := math.Float32bits(x)
		rawRank = append(rawRank, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	params := dedup.Params{Align: 4}.Normalized()
	var cuts []int
	splitS, n := l.timeIt(1, func() { cuts = dedup.Split(rawRank, params) })
	l.put("dedup.split_mbps", mbps(rankBytes, splitS), n)
	sumS, n := l.timeIt(1, func() {
		prev := 0
		for _, c := range cuts {
			dedup.Sum(rawRank[prev:c])
			prev = c
		}
	})
	l.put("dedup.sum_mbps", mbps(rankBytes, sumS), n)

	// The single-worker dump, attributed: what the layers above account
	// for, and the share nobody owns. Negative means the parts overlap (the
	// producer compresses chunk k+1 while chunk k drains).
	ct := l.per[single.Cycle]
	owned := ct.WriteBlock + ct.AckWait + packS + single.SketchS
	if w.Delta {
		// No socket: medium writes, parity fold, the dedup pass over all
		// raw bytes and compression of the churned bytes, the last two
		// computed from the isolated rates above.
		raw := float64(l.e.raw)
		owned = ct.MedWriteDumpS + single.ECEncodeS +
			raw/float64(rankBytes)*(splitS+sumS) +
			float64(single.LocalRawBytes)/1e6/codecRate[w.Codec]
	}
	l.put("dump.unattributed_pct", 100*(single.DumpS-owned)/single.DumpS, 1)
	return nil
}

// codec measures one codec through a reusable handle on the first ranks:
// median MB/s at one worker, allocations per warmed call, and the speed-up
// at the benchmark's worker count. It returns the one-worker compress MB/s.
func (l *layers) codec(name string, f ckpt.Field) (float64, error) {
	const sampleRanks = 4
	rankBytes := len(f.Data[0]) * 4
	rates := func(workers int) (comp, decomp float64, h compress.Handle, blob []byte, err error) {
		if h, err = compress.NewHandle(name, workers); err != nil {
			return
		}
		var cs, ds []float64
		for r := 0; r < sampleRanks; r++ {
			t0 := time.Now()
			if blob, err = h.Compress(f.Data[r], f.Dims, f.ErrorBound); err != nil {
				return
			}
			t1 := time.Now()
			if _, _, err = h.Decompress(blob); err != nil {
				return
			}
			cs = append(cs, t1.Sub(t0).Seconds())
			ds = append(ds, time.Since(t1).Seconds())
		}
		return mbps(rankBytes, stats.Median(cs)), mbps(rankBytes, stats.Median(ds)), h, blob, nil
	}
	c1, d1, h, blob, err := rates(1)
	if err != nil {
		return 0, err
	}
	cw, _, _, _, err := rates(workers())
	if err != nil {
		return 0, err
	}
	last := f.Data[sampleRanks-1]
	l.put(name+".compress_mbps", c1, sampleRanks)
	l.put(name+".decompress_mbps", d1, sampleRanks)
	l.put(name+".compress_allocs", mallocs(func() { h.Compress(last, f.Dims, f.ErrorBound) }), 1)
	l.put(name+".decompress_allocs", mallocs(func() { h.Decompress(blob) }), 1)
	l.put(name+".scaling", cw/c1, sampleRanks)
	return c1, nil
}

// entropy measures the two entropy stages on a first-order residual symbol
// stream the benchmark derives from rank 0 at the workload's bound — the
// alphabet the SZ quantizer hands them, without reaching into the codec.
func (l *layers) entropy(data []float32, eb float64) error {
	const alphabet = 1 << 16
	syms := make([]int, len(data))
	var prev int64
	for i, x := range data {
		q := int64(math.Round(float64(x) / (2 * eb)))
		syms[i] = int(min(max(q-prev+alphabet/2, 0), alphabet-1))
		prev = q
	}
	freqs := huffman.Histogram(syms, alphabet)
	var code *huffman.Code
	var err error
	buildS, n := l.timeIt(1, func() { code, err = huffman.Build(freqs) })
	if err != nil {
		return err
	}
	l.put("huffman.build_us", 1e6*buildS, n)
	var coded []byte
	encS, n := l.timeIt(1, func() {
		bw := bitstream.NewWriter(len(syms))
		code.EncodeAll(bw, syms)
		coded = bw.Bytes()
	})
	l.put("huffman.encode_msym_s", float64(len(syms))/1e6/encS, n)
	back := make([]int, len(syms))
	decS, n := l.timeIt(1, func() { err = code.DecodeAll(bitstream.NewReader(coded), back, alphabet) })
	if err != nil {
		return err
	}
	l.put("huffman.decode_msym_s", float64(len(syms))/1e6/decS, n)

	var packed []byte
	compS, n := l.timeIt(1, func() { packed = lossless.Compress(coded, lossless.Defaults()) })
	l.put("lossless.compress_mbps", mbps(len(coded), compS), n)
	decompS, n := l.timeIt(1, func() { _, err = lossless.Decompress(packed) })
	if err != nil {
		return err
	}
	l.put("lossless.decompress_mbps", mbps(len(coded), decompS), n)
	l.put("lossless.ratio", float64(len(coded))/float64(len(packed)), 0)
	return nil
}

// scheduler measures the stream engine twice: its per-item cost with a
// producer that does nothing, and how busy it keeps real packers.
func (l *layers) scheduler(w workload, f ckpt.Field, blob []byte) error {
	const items = 1024
	drain := func(n int, newProducer func(int) stream.ProduceFunc) (float64, error) {
		t0 := time.Now()
		eng := stream.Start(n, stream.Options{Workers: workers()}, newProducer)
		defer eng.Close()
		err := eng.Drain(func(it stream.Item) error { return it.Err })
		return time.Since(t0).Seconds(), err
	}
	var err error
	dispatchS, n := l.timeIt(1, func() {
		_, err = drain(items, func(int) stream.ProduceFunc {
			return func(int) ([]byte, error) { return blob, nil }
		})
	})
	if err != nil {
		return err
	}
	l.put("stream.dispatch_us_per_item", 1e6*dispatchS/items, n)

	busy := make([]float64, workers())
	wall, err := drain(ranks, func(lane int) stream.ProduceFunc {
		packer, perr := container.NewPacker(w.Codec, container.Options{Parallelism: 1})
		return func(idx int) ([]byte, error) {
			if perr != nil {
				return nil, perr
			}
			t0 := time.Now()
			b, err := packer.Pack(f.Data[idx], f.Dims, f.ErrorBound)
			busy[lane] += time.Since(t0).Seconds()
			return b, err
		}
	})
	if err != nil {
		return err
	}
	var sum float64
	for _, b := range busy {
		sum += b
	}
	l.put("stream.efficiency", sum/(float64(workers())*wall), 1)
	return nil
}
