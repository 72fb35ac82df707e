// Package stream is the reusable pipelined produce→consume scheduler
// extracted from the checkpoint writer: a bounded in-order slot dispatcher
// feeds parallel producer workers, and a reorder buffer drains finished
// items to a single consumer in logical order on the caller's goroutine.
//
// The shape guarantees two properties the checkpoint formats (and the
// multi-tenant service built on top) depend on:
//
//   - Determinism: items are consumed strictly in index order, so anything
//     the consumer appends to a shared medium is byte-identical at any
//     worker count or queue depth.
//   - Bounded backpressure: the dispatcher acquires a slot per item IN
//     LOGICAL ORDER before handing it to a producer, so the in-flight
//     window always covers the oldest unconsumed items and the in-order
//     consumer can never starve behind out-of-order completions.
//
// The engine is independent of what "produce" and "consume" mean: ckpt.Write
// compresses chunks and drains them to a medium; the svc client compresses
// chunks and drains them onto a session's wire framing.
package stream

import (
	"errors"
	"runtime"
	"sync"
	"time"

	"lcpio/internal/obs"
)

// The consumer's and the dispatcher's stages on the occupancy clocks: the
// ckpt.write lane vocabulary, which every pipeline shares.
const (
	consumeStage  = "drain"
	dispatchStage = "dispatch"
)

// Options configures one pipeline run.
type Options struct {
	// Name labels the obs pipeline trace (e.g. "ckpt.write"). Empty
	// disables tracing entirely.
	Name string
	// Workers is the number of parallel producers (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds items dispatched but not yet consumed — the
	// pipeline's backpressure window (0 = 2×Workers, floor Workers+1).
	// Production stalls when the consumer falls this far behind.
	QueueDepth int
	// ProduceStage names the producers' stage on the occupancy clocks
	// (default "compress").
	ProduceStage string
	// QueueGauge, if non-empty, is an obs gauge set to the reorder
	// buffer's depth after each received item; InFlightGauge tracks the
	// buffered items' byte total after each consumed item.
	QueueGauge    string
	InFlightGauge string
}

func (o Options) normalized() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 2 * o.Workers
	}
	if o.QueueDepth <= o.Workers {
		o.QueueDepth = o.Workers + 1
	}
	if o.ProduceStage == "" {
		o.ProduceStage = "compress"
	}
	return o
}

// ProduceFunc produces the blob for one item index.
type ProduceFunc func(idx int) ([]byte, error)

// Item carries one produced blob to the consumer.
type Item struct {
	Idx  int
	Blob []byte
	// Err is the producer's failure for this index; the consumer sees it
	// in order and decides how to wrap it.
	Err error
	// AvailAt is real seconds since the engine started when production of
	// this item finished — the consumer's overlap-accounting input.
	AvailAt float64
}

// Engine is one running pipeline. Start it, optionally drive the consumer
// lane's clock around out-of-band work (headers, trailers), Drain it, and
// Close it (Close is idempotent and safe after a failed Drain).
type Engine struct {
	opts Options
	n    int
	pt   *obs.PipelineTrace
	wr   *obs.WorkerClock

	start   time.Time
	sem     chan struct{}
	tasks   chan int
	results chan Item
	quit    chan struct{}
	wg      sync.WaitGroup

	stopOnce sync.Once
	endOnce  sync.Once
}

// Start launches the dispatcher and Workers producer goroutines for items
// 0..n-1. newProducer is invoked once per worker lane, on that lane's
// goroutine, to build its ProduceFunc (per-lane state such as a reusable
// packer lives in the closure); a lane whose setup fails should return a
// ProduceFunc that reports the error, so it surfaces in order at the
// consumer.
func Start(n int, opts Options, newProducer func(lane int) ProduceFunc) *Engine {
	opts = opts.normalized()
	e := &Engine{
		opts:    opts,
		n:       n,
		start:   time.Now(),
		sem:     make(chan struct{}, opts.QueueDepth),
		tasks:   make(chan int),
		results: make(chan Item, opts.Workers),
		quit:    make(chan struct{}),
	}
	if opts.Name != "" {
		// Lanes 0..Workers-1 are the producers; lane Workers is the
		// in-order consumer on the caller's goroutine; lane Workers+1 is
		// the dispatcher.
		e.pt = obs.StartPipeline(opts.Name, opts.Workers+2)
		e.wr = e.pt.Worker(opts.Workers)
	}

	go func() {
		defer close(e.tasks)
		dc := e.pt.Worker(opts.Workers + 1)
		for idx := 0; idx < n; idx++ {
			dc.Run(dispatchStage)
			dc.Blocked()
			select {
			case e.sem <- struct{}{}:
			case <-e.quit:
				return
			}
			dc.WaitOutput()
			select {
			case e.tasks <- idx:
			case <-e.quit:
				return
			}
		}
		dc.WaitInput()
	}()

	for w := 0; w < opts.Workers; w++ {
		e.wg.Add(1)
		wc := e.pt.Worker(w)
		go func(lane int) {
			defer e.wg.Done()
			produce := newProducer(lane)
			for idx := range e.tasks {
				wc.Run(opts.ProduceStage)
				d := Item{Idx: idx}
				d.Blob, d.Err = produce(idx)
				d.AvailAt = time.Since(e.start).Seconds()
				wc.WaitOutput()
				select {
				case e.results <- d:
				case <-e.quit:
					return
				}
				wc.WaitInput()
			}
		}(w)
	}
	return e
}

// Consumer returns the consumer lane's occupancy clock (nil when tracing is
// off), so the caller can attribute out-of-band work — header and trailer
// flushes around the drain loop — to named stages on the same lane.
func (e *Engine) Consumer() *obs.WorkerClock { return e.wr }

// Drain runs the in-order consumer on the calling goroutine: every item is
// buffered until its index is next, then handed to consume exactly once, in
// index order. A consume error (including one the consumer derives from
// Item.Err) aborts the pipeline and is returned verbatim. Drain stops the
// producers before returning; Close afterwards is still required to end the
// trace.
func (e *Engine) Drain(consume func(Item) error) error {
	pending := make(map[int]Item, e.opts.QueueDepth)
	var pendingBytes int64
	nextWrite := 0
	var fatal error
	for nextWrite < e.n && fatal == nil {
		d, open := <-e.results
		if !open {
			break
		}
		pending[d.Idx] = d
		pendingBytes += int64(len(d.Blob))
		if e.opts.QueueGauge != "" {
			obs.Set(e.opts.QueueGauge, float64(len(pending)))
		}
		for fatal == nil {
			d, ok := pending[nextWrite]
			if !ok {
				break
			}
			e.wr.Run(consumeStage)
			delete(pending, nextWrite)
			pendingBytes -= int64(len(d.Blob))
			if err := consume(d); err != nil {
				fatal = err
				break
			}
			if e.opts.InFlightGauge != "" {
				obs.Set(e.opts.InFlightGauge, float64(pendingBytes))
			}
			<-e.sem
			nextWrite++
		}
		e.wr.WaitInput()
	}
	e.stop()
	if fatal == nil && nextWrite < e.n {
		fatal = errors.New("stream: pipeline ended early") // defensive; unreachable
	}
	return fatal
}

// stop halts the dispatcher and producers and waits them out.
func (e *Engine) stop() {
	e.stopOnce.Do(func() { close(e.quit) })
	e.wg.Wait()
}

// Close stops the pipeline (if Drain has not already) and ends the
// occupancy trace. Idempotent.
func (e *Engine) Close() {
	e.stop()
	e.endOnce.Do(func() { e.pt.End() })
}
