package advisor

import (
	"fmt"
	"math"
	"sort"

	"lcpio/internal/compress"
	"lcpio/internal/dvfs"
	"lcpio/internal/nfs"
	"lcpio/internal/phases"
)

// The search space is the paper's: {sz, zfp} over PaperErrorBounds, worker
// counts {1, 2, 4, 8}, every P-state of the chip for each of the two legs.
var (
	searchCodecs  = []string{"sz", "zfp"}
	searchWorkers = []int{1, 2, 4, 8}
)

// psnrMarginDB is subtracted from a sketch-predicted PSNR before it is
// compared against the quality floor, hedging sketch error.
const psnrMarginDB = 3.0

// Config names the node and the write target the controller prices
// against. The zero value means Broadwell and the default NFS mount.
type Config struct {
	// Chip names the dvfs chip model ("" = Broadwell).
	Chip string
	// Mount is the write target priced by the write leg (zero = DefaultMount).
	Mount nfs.Mount
}

// Controller is the configuration optimizer: it prices candidate (codec,
// bound, workers, frequency pair) configurations through the phases pricer
// and picks the minimum-energy one that meets the deadline and quality
// floor. A Controller is safe for concurrent use.
type Controller struct {
	mount nfs.Mount
	// pr prices every candidate; the controller pins each stage to the
	// P-state it is searching, so the pricer's own rule never applies.
	pr    *phases.Pricer
	freqs []float64
}

// New builds a controller for the given node and mount.
func New(cfg Config) (*Controller, error) {
	if cfg.Chip == "" {
		cfg.Chip = "Broadwell"
	}
	chip, err := dvfs.ChipByName(cfg.Chip)
	if err != nil {
		return nil, err
	}
	if cfg.Mount.Link.BandwidthBps == 0 {
		cfg.Mount = nfs.DefaultMount()
	}
	return &Controller{mount: cfg.Mount, pr: phases.NewPricer(chip, phases.PaperRule()), freqs: chip.Frequencies()}, nil
}

// Sketch samples a field with the default sketch configuration.
func (c *Controller) Sketch(data []float32, dims []int) (*Sketch, error) {
	return NewSketch(data, dims, SketchConfig{})
}

// Request describes one dump's constraints. Zero values disable the
// corresponding constraint.
type Request struct {
	// RawBytes is the dump size priced by the energy model
	// (0 = the field's own size).
	RawBytes int64
	// DeadlineSeconds caps compress+write latency (0 = unconstrained).
	DeadlineSeconds float64
	// MinPSNR is the quality floor in dB (0 = none).
	MinPSNR float64
}

// Candidate is one (codec, bound) row of the decision table.
type Candidate struct {
	Codec string
	RelEB float64
	// Pred is the row's (ratio, PSNR): the sketch's prediction under
	// Decide, the measured round trip under ExhaustiveSweep.
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

// Decision is the search's pick plus the table that justifies it.
type Decision struct {
	Codec       string
	RelEB       float64
	Workers     int
	CompressGHz float64
	WriteGHz    float64
	Predicted   Prediction

	// EnergyJ is the modeled energy of the compress + write legs; Seconds
	// their critical-path latency.
	EnergyJ        float64
	Seconds        float64
	CompressJoules float64
	WriteJoules    float64

	// Table holds every (codec, bound) candidate, sorted by energy with
	// infeasible rows last.
	Table []Candidate

	req Request
	raw int64
}

// legOption is one priced configuration of a pipeline leg.
type legOption struct {
	joules  float64
	seconds float64
	workers int
	freq    float64
}

// pricedConfig is a fully priced configuration.
type pricedConfig struct {
	workers        int
	fComp, fWrite  float64
	compJ, compSec float64
	writeJ, wrSec  float64
}

func (p pricedConfig) total() float64   { return p.compJ + p.writeJ }
func (p pricedConfig) seconds() float64 { return p.compSec + p.wrSec }

// price enumerates the separable (workers × fComp) and (fWrite) legs of one
// (codec, bound) point and returns the minimum-energy configuration meeting
// the deadline. The two legs only couple through the deadline, so the write
// options are sorted by time with a prefix-min over energy and each
// compress option does one binary search.
func (c *Controller) price(codec string, relEB, ratio float64, raw int64, deadline float64, workersList []int, compFreqs, writeFreqs []float64) (pricedConfig, error) {
	pr := c.pr
	comp, err := pr.Compress(codec, raw, relEB, ratio)
	if err != nil {
		return pricedConfig{}, err
	}
	write := pr.Move(c.mount.Write, max(int64(math.Ceil(float64(raw)/ratio)), 1))

	compOpts := make([]legOption, 0, len(workersList)*len(compFreqs))
	for _, f := range compFreqs {
		for _, workers := range workersList {
			leg, err := pr.Leg(comp.WithCores(workers).At(f))
			if err != nil {
				return pricedConfig{}, err
			}
			compOpts = append(compOpts, legOption{joules: leg.Joules, seconds: leg.Seconds, workers: workers, freq: f})
		}
	}
	writeOpts := make([]legOption, 0, len(writeFreqs))
	for _, f := range writeFreqs {
		leg, err := pr.Leg(write.At(f))
		if err != nil {
			return pricedConfig{}, err
		}
		writeOpts = append(writeOpts, legOption{joules: leg.Joules, seconds: leg.Seconds, freq: f})
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
	found := false
	for _, co := range compOpts {
		hi := len(writeOpts)
		if deadline > 0 {
			budget := deadline - co.seconds
			hi = sort.Search(len(writeOpts), func(i int) bool { return writeOpts[i].seconds > budget })
		}
		if hi == 0 {
			continue
		}
		wo := writeOpts[prefixBest[hi-1]]
		if found && co.joules+wo.joules >= best.total() {
			continue
		}
		best = pricedConfig{
			workers: co.workers, fComp: co.freq, fWrite: wo.freq,
			compJ: co.joules, compSec: co.seconds,
			writeJ: wo.joules, wrSec: wo.seconds,
		}
		found = true
	}
	if !found {
		return pricedConfig{}, fmt.Errorf("advisor: no (workers, frequency) configuration of %s at eb=%g meets the %.3gs deadline", codec, relEB, deadline)
	}
	return best, nil
}

// source is where the search gets a cell's (ratio, PSNR): the sketch's
// prediction, hedged, or a real round trip, taken at its word.
type source struct {
	kind    string  // "predicted" or "measured", for the table's reasons
	hedgeDB float64 // subtracted from the PSNR before the floor check
	cell    func(codec string, relEB float64) (Prediction, error)
}

// search is the one cheapest-feasible loop (Eqn 3 widened from two clocks
// to the whole configuration): for each (codec, bound) it takes the cell's
// (ratio, PSNR) from src, screens the quality floor, searches workers ×
// f_compress × f_write under the deadline, and keeps the cheapest. The
// returned Decision carries the full candidate table; the error, when
// nothing is feasible, names the best-quality candidate tried.
func (c *Controller) search(raw int64, req Request, src source) (Decision, error) {
	if raw <= 0 {
		return Decision{}, fmt.Errorf("advisor: request has no raw bytes")
	}
	var table []Candidate
	bestIdx := -1
	var bestCfg pricedConfig
	for _, codec := range searchCodecs {
		for _, eb := range compress.PaperErrorBounds {
			p, err := src.cell(codec, eb)
			if err != nil {
				return Decision{}, err
			}
			cand := Candidate{Codec: codec, RelEB: eb, Pred: p}
			if req.MinPSNR > 0 && p.PSNR-src.hedgeDB < req.MinPSNR {
				quality := fmt.Sprintf("%s %.1f dB", src.kind, p.PSNR)
				if src.hedgeDB > 0 {
					quality += fmt.Sprintf(" (-%.0f dB margin)", src.hedgeDB)
				}
				cand.Reason = fmt.Sprintf("%s below the %.1f dB floor", quality, req.MinPSNR)
			} else if cfg, err := c.price(codec, eb, p.Ratio, raw, req.DeadlineSeconds, searchWorkers, c.freqs, c.freqs); err != nil {
				cand.Reason = err.Error()
			} else {
				cand.Feasible = true
				cand.EnergyJ = cfg.total()
				cand.Seconds = cfg.seconds()
				cand.Workers = cfg.workers
				cand.CompressGHz = cfg.fComp
				cand.WriteGHz = cfg.fWrite
				if bestIdx < 0 || cand.EnergyJ < table[bestIdx].EnergyJ {
					bestIdx = len(table)
					bestCfg = cfg
				}
			}
			table = append(table, cand)
		}
	}
	// The stable sort puts the cheapest feasible row first — the same row
	// bestCfg was kept for — or, when nothing is feasible, the best-quality one.
	sort.SliceStable(table, func(i, j int) bool {
		if table[i].Feasible != table[j].Feasible {
			return table[i].Feasible
		}
		if table[i].Feasible {
			return table[i].EnergyJ < table[j].EnergyJ
		}
		return table[i].Pred.PSNR > table[j].Pred.PSNR
	})
	win := table[0]
	if bestIdx < 0 {
		return Decision{Table: table}, fmt.Errorf(
			"advisor: no feasible candidate; best quality was %s at eb=%g with %s %.1f dB (%s)",
			win.Codec, win.RelEB, src.kind, win.Pred.PSNR, win.Reason)
	}
	return Decision{
		Codec:          win.Codec,
		RelEB:          win.RelEB,
		Workers:        win.Workers,
		CompressGHz:    win.CompressGHz,
		WriteGHz:       win.WriteGHz,
		Predicted:      win.Pred,
		EnergyJ:        win.EnergyJ,
		Seconds:        win.Seconds,
		CompressJoules: bestCfg.compJ,
		WriteJoules:    bestCfg.writeJ,
		Table:          table,
		req:            req,
		raw:            raw,
	}, nil
}

// Decide runs the search on the sketch's predictions alone (no full-field
// compression), holding predicted PSNR to the floor plus a 3 dB margin.
func (c *Controller) Decide(sk *Sketch, req Request) (Decision, error) {
	if sk == nil {
		return Decision{}, fmt.Errorf("advisor: nil sketch")
	}
	raw := req.RawBytes
	if raw <= 0 {
		raw = sk.RawBytes
	}
	return c.search(raw, req, source{kind: "predicted", hedgeDB: psnrMarginDB, cell: sk.Predict})
}

// ExhaustiveSweep runs the same search with every cell measured: a full
// compress.Evaluate of the actual field per (codec, bound), no sketch and
// no margin — the paper's Figure 5 methodology, and the ground truth the
// regret gate compares Decide against. It is deliberately expensive; the
// sketch's whole point is to approximate it.
func (c *Controller) ExhaustiveSweep(data []float32, dims []int, req Request) (Decision, error) {
	raw := req.RawBytes
	if raw <= 0 {
		raw = int64(len(data)) * 4
	}
	return c.search(raw, req, source{kind: "measured", cell: func(codec string, relEB float64) (Prediction, error) {
		h, err := compress.NewHandle(codec, 0)
		if err != nil {
			return Prediction{}, err
		}
		res, err := compress.Evaluate(h, data, dims, compress.AbsBoundFromRelative(relEB, data))
		if err != nil {
			return Prediction{}, fmt.Errorf("advisor: sweep %s/%g: %w", codec, relEB, err)
		}
		ratio := res.Ratio()
		if !(ratio >= 1) {
			ratio = 1
		}
		return Prediction{Codec: codec, RelEB: relEB, Ratio: ratio, BitsPerValue: 32 / ratio, PSNR: res.PSNR}, nil
	}})
}

// Regret re-prices the pick's exact configuration (codec, bound, workers,
// frequency pair) at the ratio truth measured for that (codec, bound) and
// returns E_pick/E_opt − 1 against truth's optimum. Truth optimizes the
// pick's own row too, so regret is never negative.
func (c *Controller) Regret(pick, truth Decision) (float64, error) {
	if !(truth.EnergyJ > 0) {
		return 0, fmt.Errorf("advisor: truth has no feasible optimum")
	}
	for _, row := range truth.Table {
		if row.Codec != pick.Codec || row.RelEB != pick.RelEB {
			continue
		}
		pc, err := c.price(pick.Codec, pick.RelEB, row.Pred.Ratio, pick.raw, pick.req.DeadlineSeconds,
			[]int{pick.Workers}, []float64{pick.CompressGHz}, []float64{pick.WriteGHz})
		if err != nil {
			// The pinned configuration misses the deadline at the measured
			// ratio: infinite regret, not an error.
			return math.Inf(1), nil
		}
		return max(pc.total()/truth.EnergyJ-1, 0), nil
	}
	return 0, fmt.Errorf("advisor: truth has no entry for pick %s/%g", pick.Codec, pick.RelEB)
}
