package advisor

import (
	"fmt"
	"math"
	"sort"

	"lcpio/internal/compress"
	"lcpio/internal/dvfs"
	"lcpio/internal/netsim"
	"lcpio/internal/nfs"
	"lcpio/internal/phases"
)

const defaultPSNRMarginDB = 3.0

// Config describes the search space the controller optimizes over.
// The zero value means: Broadwell, the default NFS mount, the paper's
// {sz, zfp} codecs over PaperErrorBounds, worker counts {1, 2, 4, 8},
// and a 3 dB safety margin on predicted PSNR.
type Config struct {
	// Chip names the dvfs chip model ("" = Broadwell).
	Chip string
	// Mount is the write target priced by the write leg (zero = DefaultMount).
	Mount nfs.Mount
	// Codecs are the candidate codecs (nil = {"sz", "zfp"}).
	Codecs []string
	// Bounds are the candidate relative error bounds (nil = PaperErrorBounds).
	Bounds []float64
	// Workers are the candidate compression worker counts (nil = {1, 2, 4, 8}).
	Workers []int
	// Sketch configures field sampling for NewSketch-produced sketches.
	Sketch SketchConfig
	// PSNRMarginDB is subtracted from predicted PSNR before comparing against
	// the quality floor, hedging sketch error. 0 means the 3 dB default;
	// negative means no margin.
	PSNRMarginDB float64
	// FreqStride searches every k-th P-state of the 50 MHz grid (0/1 = all).
	FreqStride int
}

func (cfg Config) normalized() (Config, *dvfs.Chip, error) {
	if cfg.Chip == "" {
		cfg.Chip = "Broadwell"
	}
	chip, err := dvfs.ChipByName(cfg.Chip)
	if err != nil {
		return cfg, nil, err
	}
	if cfg.Mount.Link.BandwidthBps == 0 {
		cfg.Mount = nfs.DefaultMount()
	}
	if len(cfg.Codecs) == 0 {
		cfg.Codecs = []string{"sz", "zfp"}
	}
	for _, name := range cfg.Codecs {
		if err := compress.CheckName(name); err != nil {
			return cfg, nil, fmt.Errorf("advisor: %w", err)
		}
		if _, ok := calib[name]; !ok {
			return cfg, nil, fmt.Errorf("advisor: codec %q has no sketch calibration", name)
		}
	}
	if len(cfg.Bounds) == 0 {
		cfg.Bounds = append([]float64(nil), compress.PaperErrorBounds...)
	}
	for _, b := range cfg.Bounds {
		if !(b > 0) || math.IsInf(b, 0) {
			return cfg, nil, fmt.Errorf("advisor: error bound %g outside (0, inf)", b)
		}
	}
	if len(cfg.Workers) == 0 {
		cfg.Workers = []int{1, 2, 4, 8}
	}
	for _, w := range cfg.Workers {
		if w < 1 {
			return cfg, nil, fmt.Errorf("advisor: worker count %d < 1", w)
		}
	}
	switch {
	case cfg.PSNRMarginDB == 0:
		cfg.PSNRMarginDB = defaultPSNRMarginDB
	case cfg.PSNRMarginDB < 0:
		cfg.PSNRMarginDB = 0
	}
	if cfg.FreqStride < 1 {
		cfg.FreqStride = 1
	}
	return cfg, chip, nil
}

// Controller is the online configuration optimizer. It prices candidate
// (codec, bound, workers, frequency pair, parity, delta, wire) configurations
// through the phases pricer and picks the minimum expected-energy one that
// meets the deadline and quality floor. Observe feeds measured outcomes back
// into the ratio model so repeated dumps converge. A Controller is safe for
// concurrent use.
type Controller struct {
	cfg Config
	// pr prices every candidate; the controller pins each stage to the
	// P-state it is searching, so the pricer's own rule never applies.
	pr    *phases.Pricer
	freqs []float64
	model *model
}

// New builds a controller over the given search space.
func New(cfg Config) (*Controller, error) {
	cfg, chip, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	all := chip.Frequencies()
	freqs := make([]float64, 0, len(all))
	for i := 0; i < len(all); i += cfg.FreqStride {
		freqs = append(freqs, all[i])
	}
	// Always keep the base clock in the grid so a strided search can still
	// hit the deadline-friendly top end.
	if freqs[len(freqs)-1] != all[len(all)-1] {
		freqs = append(freqs, all[len(all)-1])
	}
	return &Controller{cfg: cfg, pr: phases.NewPricer(chip, phases.PaperRule()), freqs: freqs, model: newModel(defaultAlpha)}, nil
}

// Sketch samples a field with the controller's sketch configuration.
func (c *Controller) Sketch(data []float32, dims []int) (*Sketch, error) {
	return NewSketch(data, dims, c.cfg.Sketch)
}

// Request describes one dump's constraints and economic context. Zero values
// disable the corresponding constraint or axis.
type Request struct {
	// RawBytes is the dump size priced by the energy model
	// (0 = the sketched field's RawBytes).
	RawBytes int64
	// DeadlineSeconds caps compress+write latency (0 = unconstrained).
	DeadlineSeconds float64
	// MinPSNR is the quality floor in dB (0 = none). Predicted PSNR must
	// clear it by the configured margin.
	MinPSNR float64
	// MaxMeanULP bounds predicted mean ULP error (0 = none).
	MaxMeanULP float64
	// Ranks is the number of ranks sharing the dump (parity/redump
	// economics; 0 = 1).
	Ranks int
	// ParityRanks, when > 0, adds "write m parity shards" as a candidate
	// axis (the ec economics).
	ParityRanks int
	// RankLossProb is the per-dump probability a rank's shard is lost;
	// prices expected recovery energy (reconstruct vs redump).
	RankLossProb float64
	// ChurnRate in (0, 1), when set, adds full-vs-delta as a candidate axis
	// (the dedup economics): a delta dump hashes everything but compresses
	// and ships only the churned fraction.
	ChurnRate float64
	// WireLink, when non-nil, replaces the NFS mount with a link to an
	// in-transit daemon and adds the wire-codec axis: ship compressed and
	// pay an inflate verify, or ship raw (the transit economics).
	WireLink *netsim.Link
}

// Candidate is one (codec, bound) row of the decision table.
type Candidate struct {
	Codec    string
	RelEB    float64
	Pred     Prediction
	Feasible bool
	// Reason says why the row was rejected ("" when feasible).
	Reason string
	// Best configuration found for this row (zero when infeasible).
	EnergyJ     float64
	Seconds     float64
	Workers     int
	CompressGHz float64
	WriteGHz    float64
}

// Decision is the controller's pick plus the economics that justify it.
type Decision struct {
	Codec        string
	RelEB        float64
	Workers      int
	CompressGHz  float64
	WriteGHz     float64
	Delta        bool
	ParityRanks  int
	WireCompress bool
	Predicted    Prediction

	// EnergyJ is the modeled expected energy: compress + write legs plus
	// loss-probability-weighted recovery. Seconds is the critical-path dump
	// latency (compress + write only; recovery is amortized).
	EnergyJ        float64
	Seconds        float64
	CompressJoules float64
	WriteJoules    float64
	RecoveryJoules float64

	// Break-even points for the enabled axes (0 when the axis is off):
	// the rank-loss probability above which parity beats redump, the churn
	// rate above which full dumps beat delta, and the link bandwidth above
	// which shipping raw beats wire compression.
	ParityBreakEvenLossProb float64
	DeltaBreakEvenChurn     float64
	WireBreakEvenBps        float64

	// Table holds every (codec, bound) candidate, sorted by energy with
	// infeasible rows last.
	Table []Candidate

	req Request
	raw int64
}

// axes is one point of the discrete (delta, wire, parity) sub-space.
type axes struct {
	delta  bool
	wire   bool
	parity int
}

// legOption is one priced configuration of a pipeline leg.
type legOption struct {
	joules   float64 // includes recovery, the leg's loss-weighted recovery share
	recovery float64
	seconds  float64
	workers  int
	freq     float64
}

// pricedConfig is a fully priced configuration.
type pricedConfig struct {
	workers        int
	fComp, fWrite  float64
	compJ, compSec float64
	writeJ, wrSec  float64
	recoveryJ      float64
	ax             axes
}

func (p pricedConfig) total() float64   { return p.compJ + p.writeJ + p.recoveryJ }
func (p pricedConfig) seconds() float64 { return p.compSec + p.wrSec }

// price enumerates the separable (workers × fComp) and (fWrite) legs of one
// (codec, bound, axes) point and returns the minimum-energy configuration
// meeting the deadline. The two legs only couple through the deadline, so
// the write options are sorted by time with a prefix-min over energy and
// each compress option does one binary search.
func (c *Controller) price(codec string, relEB, ratio float64, raw int64, ax axes, req Request, workersList []int, compFreqs, writeFreqs []float64) (pricedConfig, error) {
	pr := c.pr
	ranks := float64(max(req.Ranks, 1))
	lossP := req.RankLossProb

	// Bytes moved by each stage. A delta dump hashes all raw bytes but
	// compresses and ships only the churned fraction.
	compBytes := raw
	if ax.delta {
		compBytes = max(int64(math.Ceil(float64(raw)*req.ChurnRate)), 1)
	}
	payload := max(int64(math.Ceil(float64(compBytes)/ratio)), 1)
	parityBytes := int64(0)
	if ax.parity > 0 {
		parityBytes = int64(math.Ceil(float64(payload) * float64(ax.parity) / ranks))
	}

	comp, err := pr.Compress(codec, compBytes, relEB, ratio)
	if err != nil {
		return pricedConfig{}, err
	}
	var extras []phases.Phase // single-core compression-class stages
	if ax.delta {
		hash, err := pr.Dedup(raw)
		if err != nil {
			return pricedConfig{}, err
		}
		extras = append(extras, hash)
	}
	if ax.wire {
		verify, err := pr.Decompress(codec, compBytes, relEB, ratio)
		if err != nil {
			return pricedConfig{}, err
		}
		extras = append(extras, verify)
	}

	// Write-class stages: either the NFS mount or the daemon link.
	shipBytes := payload + parityBytes
	if req.WireLink != nil && !ax.wire {
		shipBytes = compBytes + parityBytes // raw over the wire
	}
	to, from := c.sinks(req)
	write := pr.Move(to, shipBytes)
	var recover phases.Phase
	if ax.parity > 0 {
		recover = pr.Move(from, parityBytes)
	}

	// Compress-leg options over (workers × fComp). When no parity protects
	// the dump, a lost rank redumps its 1/ranks share: fold the
	// loss-weighted compress share into the leg's expected energy.
	compOpts := make([]legOption, 0, len(workersList)*len(compFreqs))
	for _, f := range compFreqs {
		var ex phases.Leg
		for _, st := range extras {
			leg, err := pr.Leg(st.At(f))
			if err != nil {
				return pricedConfig{}, err
			}
			ex.Joules += leg.Joules
			ex.Seconds += leg.Seconds
		}
		for _, workers := range workersList {
			leg, err := pr.Leg(comp.WithCores(workers).At(f))
			if err != nil {
				return pricedConfig{}, err
			}
			opt := legOption{joules: leg.Joules + ex.Joules, seconds: leg.Seconds + ex.Seconds, workers: workers, freq: f}
			if lossP > 0 && ax.parity == 0 {
				opt.recovery = lossP * leg.Joules / ranks
				opt.joules += opt.recovery
			}
			compOpts = append(compOpts, opt)
		}
	}

	// Write-leg options over fWrite, with the parity premium and the
	// loss-weighted recovery (reconstruct with parity, rewrite without).
	writeOpts := make([]legOption, 0, len(writeFreqs))
	for _, f := range writeFreqs {
		leg, err := pr.Leg(write.At(f))
		if err != nil {
			return pricedConfig{}, err
		}
		opt := legOption{joules: leg.Joules, seconds: leg.Seconds, freq: f}
		if lossP > 0 {
			if ax.parity > 0 {
				rl, err := pr.Leg(recover.At(f))
				if err != nil {
					return pricedConfig{}, err
				}
				opt.recovery = lossP * rl.Joules
			} else {
				opt.recovery = lossP * leg.Joules / ranks
			}
			opt.joules += opt.recovery
		}
		writeOpts = append(writeOpts, opt)
	}
	sort.Slice(writeOpts, func(i, j int) bool { return writeOpts[i].seconds < writeOpts[j].seconds })
	// prefixBest[i] = index of the cheapest write option among [0..i].
	prefixBest := make([]int, len(writeOpts))
	for i := range writeOpts {
		prefixBest[i] = i
		if i > 0 && writeOpts[prefixBest[i-1]].joules <= writeOpts[i].joules {
			prefixBest[i] = prefixBest[i-1]
		}
	}

	best := pricedConfig{}
	var rc, rw float64 // the winner's recovery shares
	found := false
	for _, co := range compOpts {
		hi := len(writeOpts)
		if req.DeadlineSeconds > 0 {
			budget := req.DeadlineSeconds - co.seconds
			hi = sort.Search(len(writeOpts), func(i int) bool { return writeOpts[i].seconds > budget })
		}
		if hi == 0 {
			continue
		}
		wo := writeOpts[prefixBest[hi-1]]
		total := co.joules + wo.joules
		if found && total >= best.total() {
			continue
		}
		best = pricedConfig{
			workers: co.workers, fComp: co.freq, fWrite: wo.freq,
			compJ: co.joules, compSec: co.seconds,
			writeJ: wo.joules, wrSec: wo.seconds,
			ax: ax,
		}
		rc, rw = co.recovery, wo.recovery
		found = true
	}
	if !found {
		return pricedConfig{}, fmt.Errorf("advisor: no (workers, frequency) configuration of %s at eb=%g meets the %.3gs deadline", codec, relEB, req.DeadlineSeconds)
	}
	// Split the recovery share priced into each leg back out for reporting.
	best.compJ -= rc
	best.writeJ -= rw
	best.recoveryJ = rc + rw
	return best, nil
}

// sinks picks where the request's Writing-class stages move bytes: the
// daemon link when one is given (both directions), else the NFS mount.
func (c *Controller) sinks(req Request) (to, from phases.Sink) {
	if req.WireLink != nil {
		l := phases.Link(*req.WireLink)
		return l, l
	}
	return c.cfg.Mount.Write, c.cfg.Mount.Read
}

// bestOverAxes prices one (codec, bound) row at every enabled axes point
// over the controller's full (workers × frequency pair) grid and returns the
// cheapest; the error, when no point meets the deadline, is the last one.
func (c *Controller) bestOverAxes(codec string, relEB, ratio float64, raw int64, combos []axes, req Request) (pricedConfig, error) {
	var best pricedConfig
	var lastErr error
	found := false
	for _, ax := range combos {
		pc, err := c.price(codec, relEB, ratio, raw, ax, req, c.cfg.Workers, c.freqs, c.freqs)
		if err != nil {
			lastErr = err
			continue
		}
		if !found || pc.total() < best.total() {
			best, found = pc, true
		}
	}
	if !found {
		return pricedConfig{}, lastErr
	}
	return best, nil
}

// axesCombos enumerates the discrete sub-space the request enables.
func axesCombos(req Request) []axes {
	deltas := []bool{false}
	if req.ChurnRate > 0 && req.ChurnRate < 1 {
		deltas = append(deltas, true)
	}
	wires := []bool{false}
	if req.WireLink != nil {
		wires = append(wires, true)
	}
	parities := []int{0}
	if req.ParityRanks > 0 {
		parities = append(parities, req.ParityRanks)
	}
	var out []axes
	for _, d := range deltas {
		for _, w := range wires {
			for _, p := range parities {
				out = append(out, axes{delta: d, wire: w, parity: p})
			}
		}
	}
	return out
}

// Decide searches the configuration space for the minimum expected-energy
// configuration meeting the request's deadline and quality floor, using only
// the sketch's predictions (no full-field compression). The returned
// Decision carries the full candidate table; the error, when nothing is
// feasible, names the best-quality candidate tried.
func (c *Controller) Decide(sk *Sketch, req Request) (Decision, error) {
	if sk == nil {
		return Decision{}, fmt.Errorf("advisor: nil sketch")
	}
	raw := req.RawBytes
	if raw <= 0 {
		raw = sk.RawBytes
	}
	if raw <= 0 {
		return Decision{}, fmt.Errorf("advisor: request has no raw bytes")
	}
	combos := axesCombos(req)

	var table []Candidate
	bestIdx := -1
	var bestCfg pricedConfig
	for _, codec := range c.cfg.Codecs {
		eCorr := c.model.energyCorrection(codec)
		for _, eb := range c.cfg.Bounds {
			pred, err := c.model.predict(sk, codec, eb)
			if err != nil {
				return Decision{}, err
			}
			cand := Candidate{Codec: codec, RelEB: eb, Pred: pred}
			switch {
			case req.MinPSNR > 0 && pred.PSNR-c.cfg.PSNRMarginDB < req.MinPSNR:
				cand.Reason = fmt.Sprintf("predicted %.1f dB (-%.0f dB margin) below the %.1f dB floor",
					pred.PSNR, c.cfg.PSNRMarginDB, req.MinPSNR)
			case req.MaxMeanULP > 0 && pred.MeanULP > req.MaxMeanULP:
				cand.Reason = fmt.Sprintf("predicted mean ULP %.3g above the %.3g cap", pred.MeanULP, req.MaxMeanULP)
			default:
				rowBest, err := c.bestOverAxes(codec, eb, pred.Ratio, raw, combos, req)
				if err != nil {
					cand.Reason = err.Error()
					break
				}
				cand.Feasible = true
				cand.EnergyJ = rowBest.total() * eCorr
				cand.Seconds = rowBest.seconds()
				cand.Workers = rowBest.workers
				cand.CompressGHz = rowBest.fComp
				cand.WriteGHz = rowBest.fWrite
				if bestIdx < 0 || cand.EnergyJ < table[bestIdx].EnergyJ {
					bestIdx = len(table)
					bestCfg = rowBest
				}
			}
			table = append(table, cand)
		}
	}
	// The stable sort puts the cheapest feasible row first — the same row
	// bestCfg was kept for — or, when nothing is feasible, the best-quality one.
	sortTable(table)
	win := table[0]
	if bestIdx < 0 {
		return Decision{Table: table}, fmt.Errorf(
			"advisor: no feasible candidate; best quality was %s at eb=%g with predicted %.1f dB (%s)",
			win.Codec, win.RelEB, win.Pred.PSNR, win.Reason)
	}
	dec := Decision{
		Codec:          win.Codec,
		RelEB:          win.RelEB,
		Workers:        win.Workers,
		CompressGHz:    win.CompressGHz,
		WriteGHz:       win.WriteGHz,
		Delta:          bestCfg.ax.delta,
		ParityRanks:    bestCfg.ax.parity,
		WireCompress:   bestCfg.ax.wire,
		Predicted:      win.Pred,
		EnergyJ:        win.EnergyJ,
		Seconds:        win.Seconds,
		CompressJoules: bestCfg.compJ,
		WriteJoules:    bestCfg.writeJ,
		RecoveryJoules: bestCfg.recoveryJ,
		Table:          table,
		req:            req,
		raw:            raw,
	}
	if err := c.breakEvens(&dec); err != nil {
		return Decision{}, err
	}
	return dec, nil
}

func sortTable(table []Candidate) {
	sort.SliceStable(table, func(i, j int) bool {
		if table[i].Feasible != table[j].Feasible {
			return table[i].Feasible
		}
		if table[i].Feasible {
			return table[i].EnergyJ < table[j].EnergyJ
		}
		return table[i].Pred.PSNR > table[j].Pred.PSNR
	})
}

// breakEvens fills the winner's axis economics from the shared ec / dedup /
// wire break-even formulas, priced at the decision's operating point.
func (c *Controller) breakEvens(dec *Decision) error {
	pr := c.pr
	req, raw := dec.req, dec.raw
	ranks := max(req.Ranks, 1)
	ratio := dec.Predicted.Ratio
	payload := max(int64(math.Ceil(float64(raw)/ratio)), 1)
	comp, err := pr.Compress(dec.Codec, raw, dec.RelEB, ratio)
	if err != nil {
		return err
	}
	comp = comp.WithCores(dec.Workers).At(dec.CompressGHz)
	to, from := c.sinks(req)
	move := func(s phases.Sink, bytes int64) phases.Phase { return pr.Move(s, bytes).At(dec.WriteGHz) }

	if req.ParityRanks > 0 {
		// ec economics: parity premium vs expected redump of one rank's
		// share (the compress leg's 1/ranks plus rewriting its payload).
		parityBytes := int64(math.Ceil(float64(payload) * float64(req.ParityRanks) / float64(ranks)))
		t, err := pr.Price(move(to, parityBytes), move(from, parityBytes),
			comp, move(to, payload/int64(ranks)+1))
		if err != nil {
			return err
		}
		redumpJ := t.Legs[2].Joules/float64(ranks) + t.Legs[3].Joules
		dec.ParityBreakEvenLossProb = phases.ParityBreakEven(t.Legs[0].Joules, redumpJ, t.Legs[1].Joules)
	}

	if req.ChurnRate > 0 && req.ChurnRate < 1 {
		// dedup economics: churn rate above which hashing stops paying.
		hash, err := pr.Dedup(raw)
		if err != nil {
			return err
		}
		t, err := pr.Price(hash.At(dec.CompressGHz), comp, move(to, payload))
		if err != nil {
			return err
		}
		dec.DeltaBreakEvenChurn = phases.ChurnBreakEven(t.Legs[1].Joules+t.Legs[2].Joules, t.Legs[0].Joules, 0)
	}

	if req.WireLink != nil {
		// transit economics: the link bandwidth above which shipping raw
		// beats wire compression. The marginal compute of the wire axis is
		// the daemon's inflate verify (the client compresses either way).
		verify, err := pr.Decompress(dec.Codec, raw, dec.RelEB, ratio)
		if err != nil {
			return err
		}
		leg, err := pr.Leg(verify.At(dec.CompressGHz))
		if err != nil {
			return err
		}
		dec.WireBreakEvenBps = phases.WireBreakEven(*req.WireLink, raw, payload, leg.Seconds)
	}
	return nil
}

// Observe feeds one measured outcome back into the controller's model; see
// Outcome. Subsequent Decide calls use the corrected predictions.
func (c *Controller) Observe(o Outcome) { c.model.observe(o) }

// RatioError reports the model's current |log(predicted/measured)| ratio
// error for a (codec, bound) pair, given a fresh prediction and a measured
// ratio — the convergence metric the feedback tests pin.
func RatioError(predicted, measured float64) float64 {
	if !(predicted > 0) || !(measured > 0) {
		return math.Inf(1)
	}
	return math.Abs(math.Log(predicted / measured))
}
