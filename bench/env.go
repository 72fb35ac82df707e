package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lcpio/internal/advisor"
	"lcpio/internal/ckpt"
	"lcpio/internal/dedup"
	"lcpio/internal/phases"
	"lcpio/internal/svc"
)

const tenantName = "bench"

// env is one set-up: the generated inputs plus the running system the
// cycles load — on svc workloads an in-process daemon behind a real loopback
// TCP listener with one client connection, on the delta workload a base set
// on a file medium. All load comes from this process, closed loop: the next
// cycle starts when the previous one returned.
type env struct {
	w    workload
	cfg  config
	set  ckpt.Set
	raw  int64
	rec  *recorder
	dir  string
	done []func() // teardown, run in reverse

	srv    *svc.Server
	client *svc.Client

	base       *ckpt.Base
	baseMed    ckpt.Medium
	damagedMed ckpt.Medium
	next       ckpt.Set // the churned state the delta cycles write
	openBaseS  float64
	deltaFile  *ckpt.FileMedium // rewritten in place by every delta cycle
	lastDelta  ckpt.Medium      // the last cycle's delta set, kept for the final check

	// workers is the compressor count of the cycles; the traced pass drops
	// it to 1 for the dump whose time it attributes layer by layer.
	workers int
	seq     int // names sets: fixed width, unique over warm-up and timed cycles
	cycles  int
	ref     *cycleOut // first timed cycle: every later one must store the same bytes
	tally   tally
}

// cycleOut is what one cycle measured and what the system reported for it.
type cycleOut struct {
	Name     string
	Cycle    int
	DumpS    float64
	RestoreS float64
	SketchS  float64 // sketch + predict share of DumpS (svc workloads)

	StoredBytes  int64 // bytes the set occupies on the medium
	PayloadBytes int64

	// Eqn 2 model outputs for the cycle (simulated, never wall time).
	CompressJ, TransitJ, ReadJ float64
	SimDumpS, WireSavedS       float64

	AdmissionWaitS float64
	WireVerified   int64
	ECEncodeS      float64
	Reconstructed  int
	RefShare       float64
	LocalRawBytes  int64
}

func (c *cycleOut) joules() float64 { return c.CompressJ + c.TransitJ + c.ReadJ }

// setUp generates the inputs, starts the system under test and runs the
// warm-up cycles. Everything it starts is stopped by close.
func setUp(w workload, cfg config) (e *env, err error) {
	e = &env{w: w, cfg: cfg, rec: newRecorder(), workers: workers()}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if err = os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return e, err
	}
	if e.dir, err = os.MkdirTemp(cfg.Dir, "sets-"); err != nil {
		return e, err
	}
	e.done = append(e.done, func() { os.RemoveAll(e.dir) })
	if e.set, err = buildSet(w, cfg); err != nil {
		return e, err
	}
	e.raw = rawBytes(e.set)
	if w.Delta {
		err = e.startDelta()
	} else {
		err = e.startDaemon()
	}
	if err != nil {
		return e, err
	}
	for i := 0; i < warmCycles && !cfg.Smoke; i++ {
		if _, err = e.cycle(); err != nil {
			return e, fmt.Errorf("warm-up cycle: %w", err)
		}
	}
	if e.tally.Failed > 0 {
		return e, fmt.Errorf("warm-up failed: %v", e.tally.Notes)
	}
	e.cycles, e.ref, e.tally = 0, nil, tally{}
	return e, nil
}

func (e *env) close() {
	for i := len(e.done) - 1; i >= 0; i-- {
		e.done[i]()
	}
	e.done = nil
}

func (e *env) createFile(name string) (*ckpt.FileMedium, error) {
	fm, err := ckpt.CreateFileMedium(filepath.Join(e.dir, name))
	if err != nil {
		return nil, err
	}
	e.done = append(e.done, func() { fm.Close() })
	return fm, nil
}

func (e *env) startDaemon() error {
	fm, err := e.createFile("daemon.medium")
	if err != nil {
		return err
	}
	e.srv = svc.NewServer(svc.Config{Medium: &timedMedium{inner: &ringMedium{file: fm, window: ringWindow(e.raw)}, rec: e.rec}})
	if err := e.srv.AddTenant(svc.TenantConfig{Name: tenantName}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- e.srv.Serve(ln) }()
	// Serve returns once the listener is closed and every connection it
	// accepted has ended, so the client side closes first.
	e.done = append(e.done, func() {
		e.srv.Close()
		ln.Close()
		<-served
	})
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	e.done = append(e.done, func() { conn.Close() })
	// done runs in reverse: the connection closes before Serve is awaited.
	e.client = svc.NewClient(&timedConn{rw: conn, rec: e.rec})
	return nil
}

func (e *env) startDelta() error {
	baseFile, err := e.createFile("base.lcpt")
	if err != nil {
		return err
	}
	opts := ckpt.WriteOptions{Workers: workers(), ParityRanks: parityRanks}
	wr, err := ckpt.Write(baseFile, e.set, opts)
	if err != nil {
		return fmt.Errorf("base write: %w", err)
	}
	e.baseMed = &timedMedium{inner: baseFile, rec: e.rec}
	t0 := time.Now()
	e.base, err = ckpt.OpenBase(baseFile, nil, dedup.Params{}, ckpt.RestoreOptions{Workers: workers()})
	if err != nil {
		return err
	}
	e.openBaseS = time.Since(t0).Seconds()

	// The lost-rank input: a copy of the base set whose rank-3 chunk no
	// longer matches its digest, so Restore must rebuild it from parity.
	img := make([]byte, wr.FileBytes)
	if _, err := baseFile.ReadAt(img, 0); err != nil {
		return err
	}
	c := wr.Manifest.Chunk(lostRank, 0)
	for i := c.Offset; i < c.Offset+c.Size; i++ {
		img[i] ^= 0xA5
	}
	damaged, err := e.createFile("damaged.lcpt")
	if err != nil {
		return err
	}
	if _, err := damaged.WriteAt(img, 0); err != nil {
		return err
	}
	e.damagedMed = &timedMedium{inner: damaged, rec: e.rec}
	if e.deltaFile, err = e.createFile("delta.lcpt"); err != nil {
		return err
	}
	e.next = churned(e.set, e.cfg.Seed)
	return nil
}

// cycle runs one write half and one read half and checks what they report.
// An error means the cycle could not complete; the run stops.
func (e *env) cycle() (*cycleOut, error) {
	// Every cycle starts from a collected heap, as a dump that follows
	// minutes of computation does. It also keeps the previous cycle's
	// garbage out of this one's GC pacing and out of peak_rss_mb: without it
	// peak_rss_mb moved 12% between runs of delta-parity, with it 3%.
	runtime.GC()
	out := &cycleOut{Cycle: e.cycles, Name: fmt.Sprintf("%s-%06d", e.w.Name, e.seq)}
	e.cycles++
	e.seq++
	var err error
	if e.w.Delta {
		err = e.deltaCycle(out)
	} else {
		err = e.svcCycle(out)
	}
	if err != nil {
		return nil, err
	}
	if e.ref == nil {
		e.ref = out
	} else {
		e.tally.op("byte identity "+out.Name, sameBytes(e.ref, out))
	}
	return out, nil
}

func (e *env) svcCycle(out *cycleOut) error {
	set := e.set
	set.Name = out.Name
	f := &set.Fields[0]

	e.rec.enter(out.Cycle, spanDump)
	t0 := time.Now()
	sk, err := advisor.NewSketch(f.Data[0], f.Dims, advisor.SketchConfig{})
	if err != nil {
		return err
	}
	pred, err := sk.Predict(set.Codec, e.w.RelEB)
	if err != nil {
		return err
	}
	t1 := time.Now()
	res, err := e.client.Dump(tenantName, set, svc.DumpOptions{
		Workers: e.workers, ProjectedRatio: pred.Ratio, WireCodec: e.w.WireCodec,
	})
	t2 := time.Now()
	e.tally.op("dump "+out.Name, err)
	if err != nil {
		return err
	}
	e.rec.half(spanDump, out.Cycle, t0, t2)

	e.rec.enter(out.Cycle, spanRestore)
	rr, err := e.client.Restore(out.Name)
	t3 := time.Now()
	if err == nil && rr.Chunks != ranks {
		err = fmt.Errorf("restore verified %d of %d chunks", rr.Chunks, ranks)
	}
	e.tally.op("restore "+out.Name, err)
	if err != nil {
		return err
	}
	e.rec.half(spanRestore, out.Cycle, t2, t3)

	out.SketchS = t1.Sub(t0).Seconds()
	out.DumpS = t2.Sub(t0).Seconds()
	out.RestoreS = t3.Sub(t2).Seconds()
	out.StoredBytes, out.PayloadBytes = res.SetBytes, res.PayloadBytes
	out.CompressJ, out.TransitJ, out.ReadJ = res.CompressJoules, res.TransitJoules, rr.ReadJoules
	out.SimDumpS, out.WireSavedS = res.SimSeconds, res.WireSavedSeconds
	out.AdmissionWaitS, out.WireVerified = res.AdmissionWaitSeconds, res.WireVerifiedChunks
	return nil
}

func (e *env) deltaCycle(out *cycleOut) error {
	// A fresh medium over the same file: this cycle's set starts at 0.
	e.lastDelta = &ringMedium{file: e.deltaFile, window: ringWindow(e.raw)}
	med := &timedMedium{inner: e.lastDelta, rec: e.rec}

	e.rec.enter(out.Cycle, spanDump)
	t0 := time.Now()
	wr, err := ckpt.Write(med, e.next, ckpt.WriteOptions{
		Workers: e.workers, ParityRanks: parityRanks, Base: e.base,
	})
	t1 := time.Now()
	e.tally.op("delta write "+out.Name, err)
	if err != nil {
		return err
	}
	e.rec.half(spanDump, out.Cycle, t0, t1)

	e.rec.enter(out.Cycle, spanRestore)
	got, err := ckpt.Restore(med, ckpt.RestoreOptions{Workers: workers(), Bases: []ckpt.Medium{e.baseMed}})
	t2 := time.Now()
	if err == nil && got.Report.ChunksOK != ranks {
		err = fmt.Errorf("chain restore recovered %d of %d chunks", got.Report.ChunksOK, ranks)
	}
	e.tally.op("chain restore "+out.Name, err)
	if err != nil {
		return err
	}
	lost, err := ckpt.Restore(e.damagedMed, ckpt.RestoreOptions{Workers: workers()})
	t3 := time.Now()
	if err == nil {
		err = onlyRankRebuilt(lost.Report, lostRank)
	}
	e.tally.op("lost-rank restore "+out.Name, err)
	if err != nil {
		return err
	}
	e.rec.half(spanRestore, out.Cycle, t1, t3)

	rep, err := wr.EnergyReport(ckpt.CampaignOptions{})
	if err != nil {
		return err
	}
	out.DumpS = t1.Sub(t0).Seconds()
	// Two restores per write: the read half is reported as their mean.
	out.RestoreS = (t2.Sub(t1).Seconds() + t3.Sub(t2).Seconds()) / 2
	out.StoredBytes, out.PayloadBytes = wr.FileBytes, wr.PayloadBytes
	out.CompressJ = rep.Tuned.ByClass[phases.Compression].Joules
	out.TransitJ = rep.Tuned.Joules - out.CompressJ
	out.SimDumpS = wr.SimPipelinedSeconds
	out.ECEncodeS = wr.ECEncodeSeconds
	out.Reconstructed = lost.Report.ChunksReconstructed
	if n := wr.ChunksLocal + wr.ChunksRef + wr.ChunksShared; n > 0 {
		out.RefShare = float64(wr.ChunksRef) / float64(n)
	}
	out.LocalRawBytes = wr.LocalRawBytes
	return nil
}

// verifyCycle restores the named cycle's set in-process, outside the timed
// halves, and compares every element with the input under the rule
// `lcpio ckpt restore -check` uses.
func (e *env) verifyCycle(c *cycleOut) {
	runtime.GC() // the check's own 64 MiB must not ride on the cycle's garbage
	opts := ckpt.RestoreOptions{Workers: workers()}
	if !e.w.Delta {
		view, err := e.srv.OpenSet(c.Name)
		if err == nil {
			err = restoreAndCheck(view, opts, e.set)
		}
		e.tally.op("verify "+c.Name, err)
		return
	}
	opts.Bases = []ckpt.Medium{e.baseMed}
	err := restoreAndCheck(e.lastDelta, opts, e.next)
	e.tally.op("verify chain "+c.Name, err)
	e.tally.op("verify lost rank "+c.Name,
		restoreAndCheck(e.damagedMed, ckpt.RestoreOptions{Workers: workers()}, e.set))
}

func restoreAndCheck(med ckpt.Medium, opts ckpt.RestoreOptions, want ckpt.Set) error {
	got, err := ckpt.Restore(med, opts)
	if err != nil {
		return err
	}
	return withinBounds(want, got)
}

func onlyRankRebuilt(rep ckpt.RestoreReport, rank int) error {
	if len(rep.ReconstructedRanks) != 1 || rep.ReconstructedRanks[0] != rank || rep.ChunksOK != ranks {
		return fmt.Errorf("lost-rank restore rebuilt ranks %v (%d of %d chunks ok), want exactly rank %d",
			rep.ReconstructedRanks, rep.ChunksOK, ranks, rank)
	}
	return nil
}
