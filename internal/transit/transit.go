// Package transit models in-transit lossy compression: compressing message
// payloads on the wire so communication-bound exchanges trade CPU cycles
// for link bandwidth. It answers the two research questions of SNIPPETS §2
// (jpekkila, data compression for communication-bound HPC) inside this
// repo's framework:
//
//  1. Overhead vs. saving — when does compressing a payload beat shipping
//     it raw? A Channel prices compression compute through the phases
//     pricer (Eqn 2 at the phases.Rule tuned clocks, the same stages the
//     campaign planner runs) and transfer time with the netsim link model, and
//     BreakEven emits the closed-form break-even link bandwidth per
//     codec/bound, cross-checked by an exhaustive sweep.
//  2. Ratio vs. quality — what did the bytes saved cost? Every send runs
//     the real codec round trip and reports ULP error (stats.ULPError)
//     plus, via the chaos steppers in this package, the divergence horizon
//     of a chaotic system advanced from the reconstructed state.
//
// Transfers through a Channel are simulated on a deterministic timeline:
// chunk compression fans out over Workers model lanes, the wire leg
// serializes on the link (queue wait behind earlier chunks is observable),
// and decompression pipelines at the receiver. Real codec work is threaded
// through obs spans and pipeline occupancy clocks; energy is attributed to
// spans exactly (AddEnergy), so a traced batch reconciles with the
// in-transit phases campaign.
package transit

import (
	"fmt"
	"math"
	"sync"

	"lcpio/internal/compress"
	"lcpio/internal/dvfs"
	"lcpio/internal/netsim"
	"lcpio/internal/obs"
	"lcpio/internal/par"
	"lcpio/internal/phases"
	"lcpio/internal/stats"
)

// CodecRaw ships payloads uncompressed — the baseline side of every
// break-even comparison.
const CodecRaw = "raw"

// Config describes one compressed channel.
type Config struct {
	// Link is the network path (use netsim.Custom for swept geometries).
	Link netsim.Link
	// Codec is CodecRaw or a registered lossy codec ("sz", "zfp", "squant").
	Codec string
	// RelEB is the range-relative error bound for lossy codecs
	// (0 = 1e-3, the paper's headline operating point).
	RelEB float64
	// Chip prices compute (nil = Broadwell, the paper's reference node).
	Chip *dvfs.Chip
	// Rule selects the DVFS operating points (zero = phases.PaperRule):
	// compression at CompressionFraction×base, the wire leg at
	// WritingFraction×base.
	Rule phases.Rule
	// Workers is the codec parallelism and the number of model lanes in the
	// simulated compress/decompress pipelines (0 = 1).
	Workers int
}

// Payload is one message to ship: a float32 field plus its dimensions.
type Payload struct {
	Data []float32
	Dims []int
}

// Elems returns the element count implied by the dims.
func (p Payload) Elems() int {
	n := 1
	for _, d := range p.Dims {
		n *= d
	}
	return n
}

// Message is the accounting for one payload through the channel.
type Message struct {
	Index     int
	RawBytes  int64
	WireBytes int64 // payload bytes actually clocked onto the link
	Ratio     float64

	// Simulated seconds at the tuned clocks.
	CompressSeconds   float64
	WireSeconds       float64
	QueueWaitSeconds  float64 // waited for the link behind earlier chunks
	DecompressSeconds float64

	// Simulated joules at the tuned clocks.
	CompressJoules   float64
	WireJoules       float64
	DecompressJoules float64

	// Counterfactual: the same payload shipped raw.
	RawWireSeconds float64
	RawWireJoules  float64

	// Quality of the reconstruction (zero distances for CodecRaw).
	ULP stats.ULPStats

	// Data is the receiver-side reconstruction; Dims its shape.
	Data []float32
	Dims []int
}

// Joules is the message's total modeled energy.
func (m Message) Joules() float64 {
	return m.CompressJoules + m.WireJoules + m.DecompressJoules
}

// Batch aggregates one SendAll call.
type Batch struct {
	Codec    string
	RelEB    float64
	Link     netsim.Link
	Messages []Message

	RawBytes  int64
	WireBytes int64
	Ratio     float64 // aggregate raw/wire

	// SimSeconds is the batch makespan on the simulated timeline: compress
	// lanes feed the serialized link, decompress lanes drain arrivals.
	SimSeconds float64
	// RawSimSeconds is the counterfactual makespan shipping every payload
	// uncompressed (no compute, wire legs back to back).
	RawSimSeconds    float64
	QueueWaitSeconds float64

	Joules    float64 // compress + wire + decompress
	RawJoules float64 // counterfactual raw wire energy

	ULP stats.ULPStats
}

// GoodputBps is application-payload throughput through the channel.
func (b Batch) GoodputBps() float64 {
	if b.SimSeconds <= 0 {
		return 0
	}
	return float64(b.RawBytes) * 8 / b.SimSeconds
}

// RawGoodputBps is the counterfactual raw-wire throughput.
func (b Batch) RawGoodputBps() float64 {
	if b.RawSimSeconds <= 0 {
		return 0
	}
	return float64(b.RawBytes) * 8 / b.RawSimSeconds
}

// TimeSavedSeconds is positive when compressing beat shipping raw.
func (b Batch) TimeSavedSeconds() float64 { return b.RawSimSeconds - b.SimSeconds }

// Channel is a link plus a codec operating point. Methods are not safe for
// concurrent use (the codec handles carry reusable scratch); open one
// channel per goroutine, as with compress.Handle.
type Channel struct {
	cfg   Config
	lanes []compress.Handle // nil for CodecRaw
	pr    *phases.Pricer
}

// New validates the config and opens the channel.
func New(cfg Config) (*Channel, error) {
	if cfg.Link.BandwidthBps <= 0 {
		return nil, fmt.Errorf("transit: link %q has no bandwidth", cfg.Link.Name)
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Codec == "" {
		cfg.Codec = CodecRaw
	}
	if cfg.RelEB == 0 {
		cfg.RelEB = 1e-3
	}
	if cfg.RelEB < 0 || cfg.RelEB >= 1 {
		return nil, fmt.Errorf("transit: relative error bound %g outside [0, 1)", cfg.RelEB)
	}
	c := &Channel{cfg: cfg, pr: phases.NewPricer(cfg.Chip, cfg.Rule)}
	if cfg.Codec != CodecRaw {
		c.lanes = make([]compress.Handle, cfg.Workers)
		for i := range c.lanes {
			h, err := compress.NewHandle(cfg.Codec, cfg.Workers)
			if err != nil {
				return nil, fmt.Errorf("transit: %w", err)
			}
			c.lanes[i] = h
		}
	}
	return c, nil
}

// Send ships one payload (a SendAll of one message).
func (c *Channel) Send(p Payload) (Message, error) {
	b, err := c.SendAll([]Payload{p})
	if err != nil {
		return Message{}, err
	}
	return b.Messages[0], nil
}

// SendAll ships the payloads through the channel in order: each is
// compressed for real (lossy codecs), clocked over the link on a simulated
// serialized timeline, decompressed at the receiver, and priced with the
// machine model at the tuned clocks. The reconstruction and its ULP error
// ride back on every Message.
func (c *Channel) SendAll(ps []Payload) (Batch, error) {
	if len(ps) == 0 {
		return Batch{}, fmt.Errorf("transit: empty batch")
	}
	for i, p := range ps {
		if len(p.Data) == 0 {
			return Batch{}, fmt.Errorf("transit: payload %d is empty", i)
		}
		if p.Elems() != len(p.Data) {
			return Batch{}, fmt.Errorf("transit: payload %d dims %v disagree with %d elements",
				i, p.Dims, len(p.Data))
		}
	}

	span := obs.Start("transit.batch")
	if span.Enabled() {
		span.SetAttr("codec", c.cfg.Codec)
		span.SetAttr("link", c.cfg.Link.Name)
		span.SetAttr("messages", fmt.Sprint(len(ps)))
	}
	defer span.End()

	msgs := make([]Message, len(ps))
	firstErr := struct {
		sync.Mutex
		err error
	}{}

	// Real codec round trip, fanned out over the channel lanes; the obs
	// pipeline clocks record where the wall time went.
	pt := obs.StartPipeline("transit.channel", c.cfg.Workers)
	par.RunWorker(len(ps), c.cfg.Workers, func(w, i int) {
		clock := pt.Worker(w)
		if err := c.roundTrip(clock, w, i, ps[i], &msgs[i]); err != nil {
			firstErr.Lock()
			if firstErr.err == nil {
				firstErr.err = err
			}
			firstErr.Unlock()
		}
		clock.WaitInput()
	})
	pt.End()
	if firstErr.err != nil {
		return Batch{}, firstErr.err
	}

	b := Batch{Codec: c.cfg.Codec, RelEB: c.cfg.RelEB, Link: c.cfg.Link, Messages: msgs}
	if err := c.price(&b); err != nil {
		return Batch{}, err
	}
	c.rollUp(&b, span)
	return b, nil
}

// roundTrip runs the real codec on one payload and fills the message's
// byte/ratio/quality fields. Timing and energy are modeled later (price) so
// they are deterministic, not wall-clock.
func (c *Channel) roundTrip(clock *obs.WorkerClock, lane, idx int, p Payload, m *Message) error {
	m.Index = idx
	m.RawBytes = int64(len(p.Data)) * 4
	m.Dims = append([]int(nil), p.Dims...)

	if c.lanes == nil { // raw channel: the wire carries the payload as-is
		m.WireBytes = m.RawBytes
		m.Ratio = 1
		m.Data = append([]float32(nil), p.Data...)
		m.ULP = stats.ULPStats{Count: len(p.Data), ExactShare: 1}
		return nil
	}

	h := c.lanes[lane]
	clock.Run("compress")
	buf, err := h.Compress(p.Data, p.Dims, absBound(p.Data, c.cfg.RelEB))
	if err != nil {
		return fmt.Errorf("transit: compress payload %d: %w", idx, err)
	}
	wireBytes := int64(len(buf))

	clock.Run("decompress")
	recon, dims, err := h.Decompress(buf)
	if err != nil {
		return fmt.Errorf("transit: decompress payload %d: %w", idx, err)
	}
	m.WireBytes = wireBytes
	m.Ratio = float64(m.RawBytes) / float64(m.WireBytes)
	m.Data = append([]float32(nil), recon...)
	m.Dims = append([]int(nil), dims...)
	m.ULP, err = stats.ULPError(p.Data, m.Data)
	if err != nil {
		return fmt.Errorf("transit: payload %d: %w", idx, err)
	}
	return nil
}

// codecStages builds the compress and decompress stages of rawBytes at the
// measured ratio.
func (c *Channel) codecStages(rawBytes int64, ratio float64) (comp, dec phases.Phase, err error) {
	if comp, err = c.pr.Compress(c.cfg.Codec, rawBytes, c.cfg.RelEB, ratio); err != nil {
		return comp, dec, err
	}
	dec, err = c.pr.Decompress(c.cfg.Codec, rawBytes, c.cfg.RelEB, ratio)
	return comp, dec, err
}

// price models every message at the tuned clocks — the same stages the
// campaign planner prices — and lays the batch out on the deterministic
// timeline: Workers compress lanes feed a single serialized link, and
// Workers decompress lanes drain arrivals at the receiver.
func (c *Channel) price(b *Batch) error {
	w := c.cfg.Workers
	compFree := make([]float64, w)
	decFree := make([]float64, w)
	var linkFree, rawClock, makespan float64
	wire := phases.Link(c.cfg.Link)

	for i := range b.Messages {
		m := &b.Messages[i]
		lane := i % w

		if c.lanes != nil {
			comp, dec, err := c.codecStages(m.RawBytes, m.Ratio)
			if err != nil {
				return err
			}
			t, err := c.pr.Price(comp, dec)
			if err != nil {
				return err
			}
			m.CompressSeconds, m.CompressJoules = t.Legs[0].Seconds, t.Legs[0].Joules
			m.DecompressSeconds, m.DecompressJoules = t.Legs[1].Seconds, t.Legs[1].Joules
		}
		t, err := c.pr.Price(c.pr.Move(wire, m.WireBytes), c.pr.Move(wire, m.RawBytes))
		if err != nil {
			return err
		}
		m.WireJoules, m.RawWireJoules = t.Legs[0].Joules, t.Legs[1].Joules
		m.WireSeconds = c.cfg.Link.MessageTime(m.WireBytes)
		m.RawWireSeconds = c.cfg.Link.MessageTime(m.RawBytes)

		compDone := compFree[lane] + m.CompressSeconds
		compFree[lane] = compDone
		wireStart := math.Max(compDone, linkFree)
		m.QueueWaitSeconds = wireStart - compDone
		arrival := wireStart + m.WireSeconds
		linkFree = arrival
		decDone := math.Max(arrival, decFree[lane]) + m.DecompressSeconds
		decFree[lane] = decDone
		makespan = math.Max(makespan, decDone)

		rawClock += m.RawWireSeconds
		b.QueueWaitSeconds += m.QueueWaitSeconds
	}
	b.SimSeconds = makespan
	b.RawSimSeconds = rawClock
	return nil
}

// rollUp totals the priced messages into the batch; exact energy lands on
// child spans (AddEnergy) so a traced batch reconciles with the campaign
// planner.
func (c *Channel) rollUp(b *Batch, span obs.Span) {
	var ulpSum float64
	var exact float64
	for i := range b.Messages {
		m := &b.Messages[i]
		b.RawBytes += m.RawBytes
		b.WireBytes += m.WireBytes
		b.Joules += m.Joules()
		b.RawJoules += m.RawWireJoules
		ulpSum += m.ULP.Mean * float64(m.ULP.Count)
		exact += m.ULP.ExactShare * float64(m.ULP.Count)
		b.ULP.Count += m.ULP.Count
		if m.ULP.Max > b.ULP.Max {
			b.ULP.Max = m.ULP.Max
			b.ULP.MaxIndex = m.Index
		}

		if span.Enabled() {
			cs := span.Child("transit.compress")
			cs.AddEnergy(m.CompressJoules)
			cs.End()
			ws := span.Child("transit.wire")
			ws.AddEnergy(m.WireJoules)
			ws.End()
			ds := span.Child("transit.decompress")
			ds.AddEnergy(m.DecompressJoules)
			ds.End()
		}
	}
	if b.WireBytes > 0 {
		b.Ratio = float64(b.RawBytes) / float64(b.WireBytes)
	}
	if b.ULP.Count > 0 {
		b.ULP.Mean = ulpSum / float64(b.ULP.Count)
		b.ULP.ExactShare = exact / float64(b.ULP.Count)
	}
}

// Campaign builds an n-iteration in-transit phases.Plan from measured batch
// economics — the communication-bound shape of SNIPPETS §2 (jpekkila): each
// iteration computes for computeSec, compresses the batch's raw bytes at its
// aggregate ratio, ships the compressed bytes through the link, and
// decompresses at the receiver. Executing the plan (after ApplyRule with
// the channel's rule) reproduces the batch's modeled energy.
func (c *Channel) Campaign(b Batch, n int, computeSec float64) (phases.Plan, error) {
	if c.lanes == nil {
		return phases.Plan{}, fmt.Errorf("transit: campaign needs a lossy codec, channel is %s", CodecRaw)
	}
	if b.RawBytes <= 0 || b.Ratio <= 0 {
		return phases.Plan{}, fmt.Errorf("transit: batch carries no data")
	}
	comp, dec, err := c.codecStages(b.RawBytes, b.Ratio)
	if err != nil {
		return phases.Plan{}, err
	}
	send := c.pr.Move(phases.Link(c.cfg.Link), b.WireBytes)
	return phases.Campaign(n, computeSec, comp.Named("transit-compress"),
		send.Named("transit-send"), dec.Named("transit-decompress")), nil
}

// absBound converts the channel's range-relative bound to the absolute
// bound the codec handles take, guarding constant fields.
func absBound(data []float32, relEB float64) float64 {
	lo, hi := data[0], data[0]
	for _, v := range data[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	rng := float64(hi) - float64(lo)
	if rng <= 0 {
		rng = math.Abs(float64(hi))
		if rng == 0 {
			rng = 1
		}
	}
	return relEB * rng
}
