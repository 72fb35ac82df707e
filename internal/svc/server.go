package svc

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lcpio/internal/ckpt"
	"lcpio/internal/container"
	"lcpio/internal/nfs"
	"lcpio/internal/obs"
	"lcpio/internal/phases"
)

// Config parameterizes the daemon. The zero value is usable: an unbounded
// in-memory medium, the paper's Broadwell node, the default NFS mount, and
// the Eqn 3 tuned clocks.
type Config struct {
	// Medium is the shared backing store every session's extent is carved
	// from (nil = fresh ckpt.MemMedium).
	Medium ckpt.Medium
	// CapacityBytes bounds total extent allocation (0 = unbounded). The
	// extent allocator is a bump pointer with backward coalescing: every
	// closing session returns its slack, and any hole bordering the bump
	// pointer — including slack recorded by earlier out-of-order closes —
	// is reclaimed immediately, so a full medium rejects rather than
	// queues.
	CapacityBytes int64
	// Mount is the simulated NFS path all sessions share; its bandwidth
	// is the contended resource behind queue waits (zero = DefaultMount).
	Mount nfs.Mount
	// SaturationWindow is the per-chunk queue wait beyond which the
	// daemon counts a backpressure event and flags the PUT reply
	// (0 = 2ms).
	SaturationWindow float64
	// DefaultRatio is the projected compression ratio used for pricing
	// and extent sizing when a client does not supply one (0 = 8).
	DefaultRatio float64
	// WireCodec, when set, requires every dump session to negotiate this
	// compressed-wire codec at open ("" = sessions choose freely). Use it
	// to keep plain raw-framed dumps off a bandwidth-constrained daemon.
	WireCodec string
}

// extentSlack over-allocates each session's extent relative to its projected
// compressed size, absorbing ratio misprediction without renegotiation.
const extentSlack = 2.0

func (c Config) normalized() Config {
	if c.Medium == nil {
		c.Medium = ckpt.NewMemMedium()
	}
	if c.SaturationWindow <= 0 {
		c.SaturationWindow = 2e-3
	}
	if c.DefaultRatio <= 0 {
		c.DefaultRatio = 8
	}
	return c
}

// TenantConfig registers one tenant with the daemon.
type TenantConfig struct {
	Name string
	// QuotaBytes caps the tenant's medium footprint: finalized set bytes
	// plus in-flight extent reservations (0 = unlimited). An open that
	// exceeds it only through reservations queues; one that cannot fit
	// even after every reservation resolves is rejected.
	QuotaBytes int64
	// EnergyBudgetJoules caps the projected Eqn 2 joules of a single
	// dump session (0 = unlimited).
	EnergyBudgetJoules float64
	// MaxSessions caps concurrent dump sessions; excess opens queue
	// (0 = unlimited).
	MaxSessions int
}

type tenant struct {
	cfg      TenantConfig
	key      string // sanitized metric-name fragment
	active   int
	resident int64 // finalized set bytes on the medium
	reserved int64 // in-flight extent reservations
	joules   float64
}

type setRecord struct {
	tenant string
	base   int64
	size   int64
	raw    int64
	joules float64
}

type session struct {
	id     uint32
	ten    *tenant
	req    OpenRequest
	view   *subMedium
	m      *ckpt.Manifest
	base   int64
	extCap int64
	// off is where the next chunk lands in the extent: chunks are appended in
	// arrival order behind the set header, as ckpt.Write's drain appends them.
	// tail is the size of the manifest + footer that will close the set.
	off, tail int64
	ratio     float64 // projected compression ratio the session was priced at
	seen      []bool
	nSeen     int
	compSec   []float64 // per-field modeled compress seconds at the tuned clock
	// wireCodec is the negotiated compressed-wire codec ("" = a plain
	// session, whose puts are held to their digest only); wireSaved
	// accumulates the shared-medium transfer time saved versus shipping raw,
	// wireChunks the chunks checked at the wire boundary.
	wireCodec  string
	wireSaved  float64
	wireChunks int64
	// simClock is the session's simulated timeline: compress feeds the
	// shared medium, which serializes across sessions via Server.mediumFree.
	simClock  float64
	queueWait float64
	bp        int64
	admitWait float64
	payload   int64
	projJ     float64
	// broken is set by the connection's committer at the first put that
	// fails; verifiers read it to skip chunks that can no longer land.
	// Every other mutable field is the committer's while puts are in
	// flight and the reader's once they have drained.
	broken atomic.Bool
	done   bool
}

// Server is the daemon: one shared medium, one shared simulated-NFS
// timeline, registered tenants, and the admission ledger.
type Server struct {
	cfg Config
	// pr prices admission, close-time attribution and restores at the
	// configured rule's clocks. Only its pure Price is called here:
	// Plan.Execute would add the joules to spans a second time.
	pr *phases.Pricer

	mu        sync.Mutex
	cond      *sync.Cond
	tenants   map[string]*tenant
	sessions  map[uint32]*session
	sets      map[string]*setRecord
	openNames map[string]bool
	nextOff   int64
	// slack maps a closed extent's end offset to the start of its
	// reclaimable tail, recording holes that did not border the bump
	// pointer when they were freed. reclaimLocked walks this map backward
	// whenever the pointer retreats onto a recorded end.
	slack      map[int64]int64
	nextSess   uint32
	mediumFree float64 // simulated time the shared medium next goes idle
	closed     bool

	// verifiers is the daemon-wide verification pool: GOMAXPROCS unpackers,
	// each with its codec handles and their scratch, taken by a put's
	// verification for as long as it runs. However many connections are
	// pipelining, that many chunks are being checked at once and no more.
	verifiers chan *container.Unpacker
	// inflight counts put payloads held anywhere between a connection's
	// reader and its committer (the lcpio_svc_put_inflight gauge).
	inflight atomic.Int64
}

// NewServer builds a daemon from cfg. Tenants are registered separately
// with AddTenant; a connection from an unregistered tenant is rejected at
// open with RejectTenant.
func NewServer(cfg Config) *Server {
	cfg = cfg.normalized()
	s := &Server{
		cfg:       cfg,
		pr:        phases.NewPricer(nil, phases.PaperRule()),
		tenants:   make(map[string]*tenant),
		sessions:  make(map[uint32]*session),
		sets:      make(map[string]*setRecord),
		openNames: make(map[string]bool),
		slack:     make(map[int64]int64),
	}
	s.cond = sync.NewCond(&s.mu)
	s.verifiers = make(chan *container.Unpacker, runtime.GOMAXPROCS(0))
	for i := 0; i < cap(s.verifiers); i++ {
		s.verifiers <- container.NewUnpacker(container.Options{Parallelism: 1})
	}
	return s
}

// AddTenant registers (or reconfigures) a tenant.
func (s *Server) AddTenant(tc TenantConfig) error {
	if tc.Name == "" || len(tc.Name) > maxNameLen {
		return errors.New("svc: invalid tenant name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[tc.Name]; ok {
		t.cfg = tc
		return nil
	}
	s.tenants[tc.Name] = &tenant{cfg: tc, key: metricKey(tc.Name)}
	return nil
}

// Close wakes queued admissions with an error and stops accepting work.
// In-flight sessions on open connections fail at their next frame.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Serve accepts connections until the listener closes, handling each on
// its own goroutine. It returns the accept error (net.ErrClosed after a
// clean shutdown).
func (s *Server) Serve(l net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			_ = s.ServeConn(conn)
		}()
	}
}

// ServeConn runs one connection: at most one dump session at a time, plus
// sessionless list/restore requests. It returns nil on clean EOF. A
// connection dying mid-session aborts the session and refunds its extent
// reservation.
//
// Put frames are pipelined through three stages. This goroutine, the
// reader, parses a put, runs the checks that need no payload byte (session,
// index range) and queues it; verification (digest, and in a compressed-wire
// session the shape check) runs on the daemon-wide pool; the connection's
// committer takes the queue in arrival order, waits for that chunk's
// verdict, lands it and writes its reply. So replies leave in request
// order, a chunk's offset, simulated clock and queue wait are what a
// one-at-a-time exchange would have produced, and a peer that keeps one
// frame in flight sees exactly that exchange. Every other frame is a
// barrier: the reader handles it itself, after the puts before it have been
// answered, so the socket has one writer at a time.
func (s *Server) ServeConn(rw io.ReadWriter) error {
	p := s.startPutPipe(rw)
	var sess *session
	defer func() {
		p.stop()
		if sess != nil && !sess.done {
			s.abort(sess)
		}
	}()
	for {
		f, n, err := readFrameHeader(rw)
		switch {
		case err != nil:
		case f.Type == framePut:
			if err = p.receive(rw, f, n, sess); err == nil {
				continue
			}
		default:
			f.Payload, err = readPayload(rw, nil, n)
		}
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if err = p.drain(); err != nil {
			return err
		}
		switch f.Type {
		case frameOpen:
			if sess != nil && !sess.done {
				err = reply(rw, frameErr, f.Session, []byte("session already open on this connection"))
				break
			}
			var req OpenRequest
			req, err = parseOpenRequest(f.Payload)
			if err != nil {
				err = reply(rw, frameErr, 0, []byte(err.Error()))
				break
			}
			var rej *Reject
			var acc OpenAccept
			sess, acc, rej, err = s.open(req)
			switch {
			case err != nil:
				err = reply(rw, frameErr, 0, []byte(err.Error()))
			case rej != nil:
				err = reply(rw, frameReject, 0, rej.encode())
			default:
				err = reply(rw, frameOpenOK, sess.id, acc.encode())
			}
		case frameClose:
			if sess == nil || sess.done || f.Session != sess.id {
				err = reply(rw, frameErr, f.Session, []byte(errNoSession.Error()))
				break
			}
			res, cerr := s.closeSession(sess)
			if cerr != nil {
				err = reply(rw, frameErr, sess.id, []byte(cerr.Error()))
				break
			}
			err = reply(rw, frameCloseOK, sess.id, res.encode())
			sess = nil
		case frameList:
			err = reply(rw, frameListOK, 0, encodeSetEntries(s.List()))
		case frameRestoreReq:
			name, ok := parseSetName(f.Payload)
			if !ok {
				err = reply(rw, frameErr, f.Session, []byte("bad restore request"))
				break
			}
			rr, rerr := s.restoreSet(name)
			if rerr != nil {
				err = reply(rw, frameErr, f.Session, []byte(rerr.Error()))
				break
			}
			err = reply(rw, frameRestoreOK, f.Session, rr.encode())
		case frameErr, frameOpenOK, frameReject, framePutOK, frameCloseOK, frameListOK, frameRestoreOK:
			err = reply(rw, frameErr, f.Session, []byte("unexpected reply frame"))
		default:
			err = reply(rw, frameErr, f.Session, []byte("unknown frame"))
		}
		if err != nil {
			return err
		}
	}
}

// putWindow is how many put frames a connection may have queued behind the
// one its committer is landing. It is a constant, not an option: the window
// only has to cover the verification pool's depth, and it is also the bound
// on what a client can make the daemon hold — putWindow+1 payloads per
// connection, after which the reader stops reading and TCP pushes back.
const putWindow = 4

var (
	errNoSession     = errors.New("no such session")
	errSessionFailed = errors.New("svc: session failed; close the connection")
)

func init() {
	// A chunk's wait for a verifier and the committer's wait for a verdict
	// run from microseconds (idle pool, verdict already in) to a few
	// inflates of a multi-megabyte chunk.
	waits := []float64{1e-5, 1e-4, 1e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1}
	obs.DefineHistogram("lcpio_svc_verify_wait_seconds", waits)
	obs.DefineHistogram("lcpio_svc_commit_wait_seconds", waits)
}

// putJob is one put frame between a connection's reader and its committer.
// putWindow+1 of them circulate per connection, each with the payload
// buffer it reads frames into, so a steady dump allocates neither.
type putJob struct {
	sess    *session // nil: the frame named no open session
	sid     uint32   // the session id the frame carried, echoed in the reply
	hdr     putHeader
	buf     []byte        // payload buffer, kept across uses
	blob    []byte        // the chunk, aliasing buf
	err     error         // the refusal, if any: the reader's, else the verifier's
	verdict chan struct{} // signalled (capacity 1) once err is final
	queued  time.Time
}

// putPipe is one connection's put pipeline.
type putPipe struct {
	s *Server
	w io.Writer
	// slots is the window: one token per job, taken by the reader before it
	// reads a put's payload and returned by the committer after the reply.
	// idle holds the jobs not in use, last returned first out, so a
	// connection whose puts are answered as fast as they arrive keeps one or
	// two payload buffers warm instead of cycling through all of them.
	slots chan struct{}
	mu    sync.Mutex
	idle  []*putJob
	// queue carries jobs to the committer in arrival order; it has room for
	// every job, so the reader never blocks on it.
	queue chan *putJob
	// pending counts jobs queued and not yet answered; the reader waits on it
	// before handling a barrier frame.
	pending sync.WaitGroup
	// werr is the first reply the committer could not write. It is the
	// committer's until pending.Wait or stop returns.
	werr error
	done chan struct{}
}

func (s *Server) startPutPipe(w io.Writer) *putPipe {
	p := &putPipe{
		s: s, w: w,
		slots: make(chan struct{}, putWindow+1),
		queue: make(chan *putJob, putWindow+1),
		done:  make(chan struct{}),
	}
	for i := 0; i < cap(p.slots); i++ {
		p.release(&putJob{verdict: make(chan struct{}, 1)})
	}
	go p.commit()
	return p
}

// acquire blocks until a job is free: while putWindow+1 payloads are held
// the reader reads nothing more.
func (p *putPipe) acquire() *putJob {
	<-p.slots
	p.mu.Lock()
	defer p.mu.Unlock()
	job := p.idle[len(p.idle)-1]
	p.idle = p.idle[:len(p.idle)-1]
	return job
}

func (p *putPipe) release(job *putJob) {
	p.mu.Lock()
	p.idle = append(p.idle, job)
	p.mu.Unlock()
	p.slots <- struct{}{}
}

// receive reads one put frame's payload and queues it for verification and
// commit. Only a failed read is an error; a frame the checks refuse is
// queued with its refusal, which the committer sends in turn.
func (p *putPipe) receive(r io.Reader, f frame, n int, sess *session) error {
	job := p.acquire()
	var err error
	if job.buf, err = readPayload(r, job.buf[:0], n); err != nil {
		p.release(job)
		return err
	}
	obs.Set("lcpio_svc_put_inflight", float64(p.s.inflight.Add(1)))
	job.sess, job.sid, job.err = nil, f.Session, errNoSession
	if sess != nil && !sess.done && f.Session == sess.id {
		job.sess = sess
		if job.hdr, job.blob, job.err = parsePut(job.buf); job.err == nil {
			job.err = sess.admits(job.hdr.Idx)
		}
	}
	job.queued = time.Now()
	p.pending.Add(1)
	p.queue <- job
	if job.err != nil {
		job.verdict <- struct{}{}
	} else {
		// The wait for a verifier is the goroutine's, not the reader's: the
		// reader goes on taking payloads off the socket up to the window, so
		// a client is not stalled in Write behind a pool that is busy.
		go p.s.verify(job)
	}
	return nil
}

// admits runs the check a put needs no payload byte for. It reads only what
// open fixed, so it is safe while the committer owns the session.
func (sess *session) admits(idx int) error {
	if idx < 0 || idx >= len(sess.seen) {
		return fmt.Errorf("svc: chunk index %d outside set of %d", idx, len(sess.seen))
	}
	return nil
}

// verify gives a queued chunk its verdict on one of the pool's verifiers:
// the sender's digest over the blob as it arrived, then, in a compressed-wire
// session, the container's Check against the field's shape — the header and
// the codec stream must both state it, and the codec reads every block
// without rebuilding a value. Whether a chunk is checked is the session's
// fact, fixed at open, not the frame's. Goroutines blocked on the pool are
// served first come, first served, so chunks are verified in close to arrival
// order; the commit order does not depend on it.
func (s *Server) verify(job *putJob) {
	v := <-s.verifiers
	t0 := time.Now()
	obs.Observe("lcpio_svc_verify_wait_seconds", t0.Sub(job.queued).Seconds())
	idx := job.hdr.Idx
	switch {
	case job.sess.broken.Load():
		job.err = errSessionFailed // nothing of it can land: skip the work
	case ckpt.Digest(job.blob) != job.hdr.CRC:
		job.err = fmt.Errorf("svc: chunk %d does not match its sender's digest", idx)
	case job.sess.wireCodec != "":
		if err := v.Check(job.blob, job.sess.req.Fields[idx%len(job.sess.req.Fields)].Dims); err != nil {
			job.err = fmt.Errorf("svc: chunk %d failed inflate verification: %w", idx, err)
		}
	}
	obs.AddFloat("lcpio_svc_verify_seconds_total", time.Since(t0).Seconds())
	s.verifiers <- v
	job.verdict <- struct{}{}
}

// commit is the connection's committer: jobs in arrival order, each landed
// and answered once its verdict is in.
func (p *putPipe) commit() {
	defer close(p.done)
	for job := range p.queue {
		t0 := time.Now()
		<-job.verdict
		obs.Observe("lcpio_svc_commit_wait_seconds", time.Since(t0).Seconds())
		p.answer(job)
		obs.Set("lcpio_svc_put_inflight", float64(p.s.inflight.Add(-1)))
		p.release(job)
		p.pending.Done()
	}
}

// answer lands a chunk that passed and writes the frame's one reply. The
// first chunk of a session to fail — refused by the reader's checks, by its
// verifier, or by put — marks the session broken, and every chunk behind it
// is answered with the session-failed error without landing. Once a reply
// could not be written nothing is landed or answered any more: the
// connection is gone and the session will be aborted.
func (p *putPipe) answer(job *putJob) {
	if p.werr != nil {
		return
	}
	sess, err := job.sess, job.err
	var pr PutReply
	if sess != nil && err == nil {
		pr, err = p.s.put(sess, job)
	}
	if err != nil {
		p.werr = reply(p.w, frameErr, job.sid, []byte(err.Error()))
	} else {
		p.werr = reply(p.w, framePutOK, job.sid, pr.encode())
	}
	if sess != nil && (err != nil || p.werr != nil) {
		sess.broken.Store(true)
	}
}

// drain returns once every put received so far has been answered, with the
// reply-write failure that ended the connection's usefulness, if any.
func (p *putPipe) drain() error {
	p.pending.Wait()
	return p.werr
}

// stop ends the committer after it has dealt with everything queued.
func (p *putPipe) stop() {
	close(p.queue)
	<-p.done
}

func reply(w io.Writer, t frameType, sess uint32, payload []byte) error {
	return writeFrame(w, frame{Type: t, Session: sess, Payload: payload})
}

// price projects a dump's Eqn 2 cost at the Eqn 3 tuned clocks: compress
// the raw bytes at the assumed ratio, then push the projected file — header,
// the payload at that ratio, and the set's tail — through the shared mount.
func (s *Server) price(req OpenRequest, ratio float64, tail int64) (projJ, projSec float64, err error) {
	raw := req.RawBytes()
	comp, err := s.pr.Compress(req.Codec, raw, req.RelEB, ratio)
	if err != nil {
		return 0, 0, err
	}
	projFile, ok := projectedBytes(raw, ratio)
	if !ok {
		return 0, 0, errPricingInputs
	}
	t, err := s.pr.Price(comp, s.pr.Move(s.cfg.Mount.Write, ckpt.HeaderLen+projFile+tail))
	return t.Joules, t.Seconds, err
}

// open runs admission control. Exactly one of (session, reject, error) is
// non-zero. Energy, deadline, and fit-never quota violations reject
// immediately; session-slot and reservation pressure queue until peers
// close (the reservation slack they refund is what makes waiting useful).
func (s *Server) open(req OpenRequest) (*session, OpenAccept, *Reject, error) {
	ratio := req.ProjectedRatio
	if ratio <= 0 {
		ratio = s.cfg.DefaultRatio
	}
	// The manifest the set will close with, chunk table sized: its encoding
	// has a fixed width per chunk, so its size now is its size at close.
	n := req.Ranks * len(req.Fields)
	m := &ckpt.Manifest{
		SetName: req.SetName, Meta: req.Meta, Codec: req.Codec,
		Ranks: req.Ranks, Fields: req.Fields,
		Chunks: make([]ckpt.ChunkInfo, n),
	}
	tail := m.TailBytes()
	projJ, projSec, err := s.price(req, ratio, tail)
	if err != nil {
		return nil, OpenAccept{}, nil, err
	}

	// The extent: the header, each rank's projected compressed share with
	// extentSlack over it and room for container framing, and the set's
	// tail. It is the set's as a whole.
	start := int64(ckpt.HeaderLen)
	perRank := req.RawBytes() / int64(req.Ranks)
	extCap := start + tail + int64(req.Ranks)*
		(int64(float64(perRank)/ratio*extentSlack)+int64(len(req.Fields))*512+4096)

	t0 := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()

	ten := s.tenants[req.Tenant]
	if ten == nil {
		s.countReject(nil)
		return nil, OpenAccept{}, &Reject{Code: RejectTenant,
			Detail: fmt.Sprintf("tenant %q not registered", req.Tenant)}, nil
	}
	if b := ten.cfg.EnergyBudgetJoules; b > 0 && projJ > b {
		s.countReject(ten)
		return nil, OpenAccept{}, &Reject{Code: RejectEnergy,
			Detail:          fmt.Sprintf("projected %.1f J exceeds budget %.1f J", projJ, b),
			ProjectedJoules: projJ, BudgetJoules: b}, nil
	}
	if d := req.DeadlineSeconds; d > 0 && projSec > d {
		s.countReject(ten)
		return nil, OpenAccept{}, &Reject{Code: RejectDeadline,
			Detail:          fmt.Sprintf("projected %.3f s misses deadline %.3f s", projSec, d),
			ProjectedJoules: projJ}, nil
	}
	if q := ten.cfg.QuotaBytes; q > 0 && ten.resident+extCap > q {
		s.countReject(ten)
		return nil, OpenAccept{}, &Reject{Code: RejectQuota,
			Detail: fmt.Sprintf("extent %d B cannot fit quota %d B (resident %d B)",
				extCap, q, ten.resident),
			ProjectedJoules: projJ}, nil
	}
	if wc := s.cfg.WireCodec; wc != "" && req.WireCodec != wc {
		return nil, OpenAccept{}, nil, fmt.Errorf(
			"svc: daemon requires wire codec %q, session offered %q", wc, req.WireCodec)
	}
	if s.sets[req.SetName] != nil || s.openNames[req.SetName] {
		return nil, OpenAccept{}, nil, fmt.Errorf("svc: set %q already exists", req.SetName)
	}

	queued := false
	for {
		if s.closed {
			return nil, OpenAccept{}, nil, errors.New("svc: server closed")
		}
		fits := ten.cfg.QuotaBytes <= 0 || ten.resident+ten.reserved+extCap <= ten.cfg.QuotaBytes
		slot := ten.cfg.MaxSessions <= 0 || ten.active < ten.cfg.MaxSessions
		if fits && slot {
			break
		}
		if !queued {
			queued = true
			obs.Add("lcpio_svc_queued_total", 1)
			obs.Add("lcpio_svc_tenant_"+ten.key+"_queued_total", 1)
		}
		s.cond.Wait()
	}
	// Re-check the name after any queue wait: a peer may have claimed it.
	if s.sets[req.SetName] != nil || s.openNames[req.SetName] {
		return nil, OpenAccept{}, nil, fmt.Errorf("svc: set %q already exists", req.SetName)
	}
	if c := s.cfg.CapacityBytes; c > 0 && s.nextOff+extCap > c {
		s.countReject(ten)
		return nil, OpenAccept{}, &Reject{Code: RejectCapacity,
			Detail: fmt.Sprintf("extent %d B exceeds medium capacity (allocated %d of %d B)",
				extCap, s.nextOff, c),
			ProjectedJoules: projJ}, nil
	}

	s.nextSess++
	sess := &session{
		id:        s.nextSess,
		ten:       ten,
		req:       req,
		view:      &subMedium{inner: s.cfg.Medium, base: s.nextOff, size: extCap},
		m:         m,
		base:      s.nextOff,
		extCap:    extCap,
		off:       start,
		tail:      tail,
		ratio:     ratio,
		wireCodec: req.WireCodec,
		seen:      make([]bool, n),
		compSec:   make([]float64, len(req.Fields)),
		admitWait: time.Since(t0).Seconds(),
		projJ:     projJ,
	}
	if err := ckpt.WriteSetHeader(sess.view); err != nil {
		return nil, OpenAccept{}, nil, err
	}
	s.nextOff += extCap
	ten.reserved += extCap
	ten.active++
	s.sessions[sess.id] = sess
	s.openNames[req.SetName] = true
	obs.Add("lcpio_svc_admitted_total", 1)
	obs.Add("lcpio_svc_tenant_"+ten.key+"_admitted_total", 1)
	obs.Set("lcpio_svc_active_sessions", float64(len(s.sessions)))
	acc := OpenAccept{
		Session: sess.id, ExtentBase: sess.base, ExtentBytes: extCap,
		ProjectedJoules: projJ, AdmissionWaitSeconds: sess.admitWait, WireCodec: sess.wireCodec,
	}
	return sess, acc, nil, nil
}

// reclaimLocked returns a closing extent's tail [tail, end) to the
// allocator (s.mu held). When the extent borders the bump pointer the
// watermark retreats to tail, then keeps walking backward through slack
// recorded by earlier out-of-order closes that now borders it; otherwise
// the hole is recorded for a later walk. Buried keys can never collide
// with future extent ends: new extents are carved above s.nextOff, which
// sits above every recorded key.
func (s *Server) reclaimLocked(end, tail int64) {
	if end != s.nextOff {
		if tail < end {
			s.slack[end] = tail
		}
		return
	}
	s.nextOff = tail
	for {
		t, ok := s.slack[s.nextOff]
		if !ok {
			return
		}
		delete(s.slack, s.nextOff)
		s.nextOff = t
	}
}

// countReject must run with s.mu held (ten may be nil for unknown tenants).
func (s *Server) countReject(ten *tenant) {
	obs.Add("lcpio_svc_rejected_total", 1)
	if ten != nil {
		obs.Add("lcpio_svc_tenant_"+ten.key+"_rejected_total", 1)
	}
}

// put lands one verified chunk: it advances the session's simulated clock
// by the modeled compress time, serializes the wire transfer on the shared
// medium timeline, and appends the blob at the session's running offset. The
// queue wait — time the chunk sat compressed but unwritable because other
// sessions held the medium — is the backpressure signal. The manifest CRC is
// the sender's digest, which the verifier matched against these bytes. A
// compressed-wire session stores the same container blobs a plain one does;
// each chunk's field, whose raw size open fixed and whose shape the verifier
// held the chunk to, prices the shared-medium transfer time compression
// saved.
func (s *Server) put(sess *session, job *putJob) (PutReply, error) {
	if sess.broken.Load() {
		return PutReply{}, errSessionFailed
	}
	idx, blob := job.hdr.Idx, job.blob
	nf := len(sess.req.Fields)
	if sess.seen[idx] {
		return PutReply{}, fmt.Errorf("svc: duplicate chunk %d", idx)
	}
	field, rank := idx%nf, idx/nf
	if sess.off+int64(len(blob))+sess.tail > sess.extCap {
		return PutReply{}, fmt.Errorf(
			"svc: chunk %d: %d B at offset %d and the set's %d B tail exceed the %d B extent (ratio shortfall)",
			idx, len(blob), sess.off, sess.tail, sess.extCap)
	}
	if sess.compSec[field] == 0 {
		f := sess.req.Fields[field]
		comp, err := s.pr.Compress(sess.req.Codec, int64(f.Elems())*4, sess.req.RelEB, sess.ratio)
		if err != nil {
			return PutReply{}, err
		}
		leg, err := s.pr.Leg(comp)
		if err != nil {
			return PutReply{}, err
		}
		sess.compSec[field] = leg.Seconds
	}
	wireSec := s.cfg.Mount.Send(int64(len(blob))).NetworkSeconds

	s.mu.Lock()
	avail := sess.simClock + sess.compSec[field]
	start := avail
	if s.mediumFree > start {
		start = s.mediumFree
	}
	wait := start - avail
	s.mediumFree = start + wireSec
	s.mu.Unlock()
	sess.simClock = start + wireSec
	sess.queueWait += wait
	bp := wait > s.cfg.SaturationWindow
	if bp {
		sess.bp++
		obs.Add("lcpio_svc_backpressure_total", 1)
		obs.Add("lcpio_svc_tenant_"+sess.ten.key+"_backpressure_total", 1)
	}

	if _, err := sess.view.WriteAt(blob, sess.off); err != nil {
		return PutReply{}, err
	}
	sess.m.Chunks[idx] = ckpt.ChunkInfo{
		Rank: rank, Field: field, Offset: sess.off, Size: int64(len(blob)), CRC: job.hdr.CRC,
	}
	sess.off += int64(len(blob))
	sess.seen[idx] = true
	sess.nSeen++
	sess.payload += int64(len(blob))
	if sess.wireCodec != "" {
		raw := int64(sess.req.Fields[field].Elems()) * 4
		sess.wireSaved += s.cfg.Mount.Write(raw).NetworkSeconds - wireSec
		sess.wireChunks++
	}
	obs.Add("lcpio_svc_chunks_total", 1)
	obs.AddFloat("lcpio_svc_bytes_total", float64(len(blob)))
	return PutReply{Idx: idx, QueueWaitSeconds: wait, Backpressure: bp}, nil
}

// closeSession finalizes the set behind its last chunk (manifest + footer
// through ckpt's format helpers), attributes the session's energy at the
// tuned clocks, refunds everything of the extent the set does not occupy,
// and publishes the set for restore.
func (s *Server) closeSession(sess *session) (Result, error) {
	if sess.broken.Load() {
		return Result{}, errors.New("svc: session failed; nothing to finalize")
	}
	if sess.nSeen != len(sess.seen) {
		return Result{}, fmt.Errorf("svc: close with %d of %d chunks", sess.nSeen, len(sess.seen))
	}
	// total is header + chunks + manifest + footer with nothing between:
	// what crossed the wire, what the set occupies, and the FileBytes of an
	// identical local ckpt.Write — so the energy attribution below reconciles
	// exactly with a phases.CheckpointCampaign of the same set.
	total, err := ckpt.FinalizeSet(sess.view, sess.m, sess.off)
	if err != nil {
		return Result{}, err
	}

	// The framing (the header flushed at open rides along with manifest and
	// footer) takes its turn on the shared medium like any chunk.
	wireSec := s.cfg.Mount.Send(total - sess.payload).NetworkSeconds

	raw := sess.req.RawBytes()
	ratio := float64(raw) / float64(sess.payload)
	comp, err := s.pr.Compress(sess.req.Codec, raw, sess.req.RelEB, ratio)
	if err != nil {
		return Result{}, err
	}
	t, err := s.pr.Price(comp, s.pr.Move(s.cfg.Mount.Write, total))
	if err != nil {
		return Result{}, err
	}
	cs, ws := t.Legs[0], t.Legs[1]

	s.mu.Lock()
	start := sess.simClock
	if s.mediumFree > start {
		sess.queueWait += s.mediumFree - start
		start = s.mediumFree
	}
	s.mediumFree = start + wireSec
	sess.simClock = start + wireSec

	ten := sess.ten
	ten.reserved -= sess.extCap
	ten.resident += total
	ten.active--
	ten.joules += cs.Joules + ws.Joules
	s.reclaimLocked(sess.base+sess.extCap, sess.base+total)
	sess.done = true
	delete(s.sessions, sess.id)
	delete(s.openNames, sess.req.SetName)
	obs.Set("lcpio_svc_active_sessions", float64(len(s.sessions)))
	s.sets[sess.req.SetName] = &setRecord{
		tenant: ten.cfg.Name, base: sess.base, size: total,
		raw: raw, joules: cs.Joules + ws.Joules,
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	res := Result{
		SetBytes:     total,
		PayloadBytes: sess.payload,
		RawBytes:     raw,
		Chunks:       len(sess.seen),

		CompressJoules: cs.Joules,
		TransitJoules:  ws.Joules,
		Joules:         cs.Joules + ws.Joules,

		QueueWaitSeconds:   sess.queueWait,
		SimSeconds:         sess.simClock,
		BackpressureEvents: sess.bp,
		GoodputBps:         float64(sess.payload) * 8 / sess.simClock,

		ExtentBase:           sess.base,
		ExtentBytes:          total,
		AdmissionWaitSeconds: sess.admitWait,

		WireCodec:          sess.wireCodec,
		WireSavedSeconds:   sess.wireSaved,
		WireVerifiedChunks: sess.wireChunks,
	}
	key := ten.key
	obs.AddFloat("lcpio_svc_joules_total", res.Joules)
	obs.AddFloat("lcpio_svc_tenant_"+key+"_joules_total", res.Joules)
	obs.AddFloat("lcpio_svc_tenant_"+key+"_queue_wait_seconds_total", res.QueueWaitSeconds)
	obs.AddFloat("lcpio_svc_tenant_"+key+"_bytes_total", float64(res.PayloadBytes))
	obs.Set("lcpio_svc_tenant_"+key+"_goodput_bps", res.GoodputBps)
	return res, nil
}

// abort releases a dead session's reservation without publishing a set.
func (s *Server) abort(sess *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess.done {
		return
	}
	sess.done = true
	ten := sess.ten
	ten.reserved -= sess.extCap
	ten.active--
	s.reclaimLocked(sess.base+sess.extCap, sess.base)
	delete(s.sessions, sess.id)
	delete(s.openNames, sess.req.SetName)
	obs.Add("lcpio_svc_aborted_total", 1)
	obs.Set("lcpio_svc_active_sessions", float64(len(s.sessions)))
	s.cond.Broadcast()
}

// List enumerates finalized sets, sorted by name.
func (s *Server) List() []SetEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries := make([]SetEntry, 0, len(s.sets))
	for name, rec := range s.sets {
		entries = append(entries, SetEntry{
			Name: name, Tenant: rec.tenant, Bytes: rec.size,
			Joules: rec.joules, RawByte: rec.raw,
		})
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].Name < entries[b].Name })
	return entries
}

// OpenSet returns a read-only medium view of a finalized set, positioned
// and sized so the unmodified ckpt.Restore / ckpt.VerifySet read it like a
// standalone file.
func (s *Server) OpenSet(name string) (ckpt.Medium, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.sets[name]
	if rec == nil {
		return nil, fmt.Errorf("svc: no such set %q", name)
	}
	return &subMedium{inner: s.cfg.Medium, base: rec.base, size: rec.size}, nil
}

// restoreSet performs a server-side restore+verify of a finalized set and
// prices the read at the tuned writing clock.
func (s *Server) restoreSet(name string) (RestoreReply, error) {
	view, err := s.OpenSet(name)
	if err != nil {
		return RestoreReply{}, err
	}
	got, err := ckpt.Restore(view, ckpt.RestoreOptions{Mount: s.cfg.Mount})
	if err != nil {
		return RestoreReply{}, err
	}
	s.mu.Lock()
	rec := s.sets[name]
	s.mu.Unlock()
	// The read already happened inside Restore; replay its measured wire
	// time as the sink instead of simulating the mount again.
	measured := func(bytes int64) nfs.Transfer {
		return nfs.Transfer{PayloadBytes: bytes, RPCs: 1, NetworkSeconds: got.Report.SimReadSeconds}
	}
	read, err := s.pr.Leg(s.pr.Move(measured, rec.size))
	if err != nil {
		return RestoreReply{}, err
	}
	return RestoreReply{
		Chunks:          got.Manifest.NumChunks(),
		RawBytes:        rec.raw,
		SimReadSeconds:  got.Report.SimReadSeconds,
		ReadJoules:      read.Joules,
		DecompressRatio: float64(rec.raw) / float64(rec.size),
	}, nil
}

// TenantUsage reports a tenant's admission-ledger state (for tests and
// the CLI status view).
type TenantUsage struct {
	Name           string
	ActiveSessions int
	ResidentBytes  int64
	ReservedBytes  int64
	Joules         float64
}

// Usage returns the ledger row for one tenant.
func (s *Server) Usage(name string) (TenantUsage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[name]
	if !ok {
		return TenantUsage{}, false
	}
	return TenantUsage{
		Name: name, ActiveSessions: t.active,
		ResidentBytes: t.resident, ReservedBytes: t.reserved, Joules: t.joules,
	}, true
}

// subMedium is an offset-translating window onto the shared medium: a
// session's extent while it fills, a finalized set once published. Size()
// reports the window's size, which is how ckpt.ReadManifest finds the footer
// without the set being alone on a medium.
type subMedium struct {
	inner ckpt.Medium
	base  int64
	size  int64
}

func (v *subMedium) Size() int64 { return v.size }

func (v *subMedium) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > v.size {
		return 0, fmt.Errorf("svc: write [%d, %d) escapes extent of %d B", off, off+int64(len(p)), v.size)
	}
	return v.inner.WriteAt(p, v.base+off)
}

func (v *subMedium) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off > v.size {
		return 0, io.EOF
	}
	n := len(p)
	var atEnd error
	if off+int64(n) > v.size {
		n = int(v.size - off)
		atEnd = io.EOF
	}
	rn, err := v.inner.ReadAt(p[:n], v.base+off)
	if err != nil {
		return rn, err
	}
	return rn, atEnd
}

// metricKey sanitizes a tenant name into a metric-name fragment.
func metricKey(name string) string {
	b := []byte(name)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_':
		case c >= 'A' && c <= 'Z':
			b[i] = c + ('a' - 'A')
		default:
			b[i] = '_'
		}
	}
	return string(b)
}
