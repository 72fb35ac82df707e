package main

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lcpio/internal/ckpt"
)

// span is one timed interval at a layer boundary, taken from outside the
// program: around a cycle half, a frame written to the socket, a reply
// awaited, a medium read or write. Spans of one cycle share its id; Parent
// is the cycle half that caused the span.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Cycle  int     `json:"cycle"`
	Parent string  `json:"parent,omitempty"`
	Bytes  int64   `json:"bytes,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

const (
	spanDump      = "dump"
	spanRestore   = "restore"
	spanConnWrite = "conn.write"
	spanConnRead  = "conn.read"
	spanMedWrite  = "medium.write"
	spanMedRead   = "medium.read"
)

// recorder keeps spans in memory. While off, the wrappers below forward
// calls untouched, so the same wiring serves untraced and traced cycles.
type recorder struct {
	on atomic.Bool
	t0 time.Time

	mu     sync.Mutex
	cycle  int
	parent string
	spans  []span
	// firstPut is a copy of the first large frame written while recording —
	// a PUT — kept for the ParseFrame measurement.
	firstPut []byte
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// enter names the cycle half that the following boundary spans belong to.
func (r *recorder) enter(cycle int, parent string) {
	r.mu.Lock()
	r.cycle, r.parent = cycle, parent
	r.mu.Unlock()
}

// add records a boundary span under the current cycle half.
func (r *recorder) add(name string, start, end time.Time, bytes int64) {
	r.mu.Lock()
	r.spans = append(r.spans, span{
		Name: name, Start: start.Sub(r.t0).Seconds(), End: end.Sub(r.t0).Seconds(),
		Cycle: r.cycle, Parent: r.parent, Bytes: bytes,
	})
	r.mu.Unlock()
}

// half records the span of a whole cycle half, the parent of the boundary
// spans added while it ran.
func (r *recorder) half(name string, cycle int, start, end time.Time) {
	if r.on.Load() {
		r.enter(cycle, "")
		r.add(name, start, end, 0)
	}
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(r.snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedConn is the io.ReadWriter handed to svc.NewClient: one span per
// frame written (the client issues one Write per frame) and per Read while
// a reply is awaited.
type timedConn struct {
	rw  io.ReadWriter
	rec *recorder
}

func (c *timedConn) Write(p []byte) (int, error) {
	if !c.rec.on.Load() {
		return c.rw.Write(p)
	}
	t0 := time.Now()
	n, err := c.rw.Write(p)
	c.rec.add(spanConnWrite, t0, time.Now(), int64(n))
	if len(p) > 4096 {
		c.rec.mu.Lock()
		if c.rec.firstPut == nil {
			c.rec.firstPut = append([]byte(nil), p...)
		}
		c.rec.mu.Unlock()
	}
	return n, err
}

func (c *timedConn) Read(p []byte) (int, error) {
	if !c.rec.on.Load() {
		return c.rw.Read(p)
	}
	t0 := time.Now()
	n, err := c.rw.Read(p)
	c.rec.add(spanConnRead, t0, time.Now(), int64(n))
	return n, err
}

// timedMedium is the ckpt.Medium handed to svc.Config.Medium, ckpt.Write
// and ckpt.Restore: one span per WriteAt and ReadAt.
type timedMedium struct {
	inner ckpt.Medium
	rec   *recorder
}

func (m *timedMedium) Size() int64 { return m.inner.Size() }

func (m *timedMedium) WriteAt(p []byte, off int64) (int, error) {
	if !m.rec.on.Load() {
		return m.inner.WriteAt(p, off)
	}
	t0 := time.Now()
	n, err := m.inner.WriteAt(p, off)
	m.rec.add(spanMedWrite, t0, time.Now(), int64(n))
	return n, err
}

func (m *timedMedium) ReadAt(p []byte, off int64) (int, error) {
	if !m.rec.on.Load() {
		return m.inner.ReadAt(p, off)
	}
	t0 := time.Now()
	n, err := m.inner.ReadAt(p, off)
	m.rec.add(spanMedRead, t0, time.Now(), int64(n))
	return n, err
}

// cycleTrace is what one traced cycle's boundary spans add up to.
type cycleTrace struct {
	Frames     int     // frames the client wrote during the dump
	WireBytes  int64   // bytes through the socket during the dump, both ways
	WriteBlock float64 // seconds blocked in socket writes during the dump
	AckWait    float64 // seconds blocked in socket reads during the dump
	OpenRTT    float64
	CloseRTT   float64
	PutRTT     []float64 // last PUT byte written -> ack fully read
	RestoreRTT float64

	MedWriteCalls, MedReadCalls int
	MedWriteBytes, MedReadBytes int64
	MedWriteS, MedReadS         float64
	// MedWriteDumpS is the medium-write time inside the dump half only.
	MedWriteDumpS float64
}

// analyze folds a run's spans into per-cycle totals. Within one cycle half
// the client's socket traffic is strictly write-then-read per exchange, so
// an exchange's round trip runs from the end of its write to the end of the
// last read before the next write.
func analyze(spans []span) map[int]*cycleTrace {
	out := map[int]*cycleTrace{}
	type exchange struct{ writeEnd, lastRead float64 }
	var ex []exchange
	cur, curParent := -1, ""
	flush := func() {
		if cur < 0 || len(ex) == 0 {
			return
		}
		ct := out[cur]
		rtt := func(e exchange) float64 { return max(0, e.lastRead-e.writeEnd) }
		switch curParent {
		case spanDump:
			ct.OpenRTT = rtt(ex[0])
			if len(ex) > 1 {
				ct.CloseRTT = rtt(ex[len(ex)-1])
				for _, e := range ex[1 : len(ex)-1] {
					ct.PutRTT = append(ct.PutRTT, rtt(e))
				}
			}
		case spanRestore:
			ct.RestoreRTT = rtt(ex[0])
		}
		ex = ex[:0]
	}
	for _, s := range spans {
		if s.Parent == "" {
			continue
		}
		ct := out[s.Cycle]
		if ct == nil {
			ct = &cycleTrace{}
			out[s.Cycle] = ct
		}
		switch s.Name {
		case spanConnWrite, spanConnRead:
			if s.Cycle != cur || s.Parent != curParent {
				flush()
				cur, curParent = s.Cycle, s.Parent
			}
			if s.Name == spanConnWrite {
				ex = append(ex, exchange{writeEnd: s.End, lastRead: s.End})
			} else if len(ex) > 0 {
				ex[len(ex)-1].lastRead = s.End
			}
			if s.Parent == spanDump {
				ct.WireBytes += s.Bytes
				if s.Name == spanConnWrite {
					ct.Frames++
					ct.WriteBlock += s.dur()
				} else {
					ct.AckWait += s.dur()
				}
			}
		case spanMedWrite:
			ct.MedWriteCalls++
			ct.MedWriteBytes += s.Bytes
			ct.MedWriteS += s.dur()
			if s.Parent == spanDump {
				ct.MedWriteDumpS += s.dur()
			}
		case spanMedRead:
			ct.MedReadCalls++
			ct.MedReadBytes += s.Bytes
			ct.MedReadS += s.dur()
		}
	}
	flush()
	return out
}
