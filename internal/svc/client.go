package svc

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"

	"lcpio/internal/ckpt"
	"lcpio/internal/stream"
)

// Client speaks the svc frame protocol over one byte-stream connection.
// A client runs one request at a time — a dump session, a list, a restore —
// so run several Clients for concurrency. Inside a dump the put frames are
// pipelined: the sender does not wait for a chunk's acknowledgement before
// writing the next, and a second goroutine reads the acknowledgements off
// the same connection, which must therefore allow one Read concurrent with
// one Write (net.Conn and net.Pipe do).
type Client struct {
	rw io.ReadWriter
}

// NewClient wraps an established connection (any io.ReadWriter: a
// net.Conn, one end of net.Pipe, ...).
func NewClient(rw io.ReadWriter) *Client { return &Client{rw: rw} }

// Dial connects to a listening daemon.
func Dial(network, addr string) (*Client, net.Conn, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, nil, err
	}
	return NewClient(conn), conn, nil
}

// DumpOptions tunes a client-side dump.
type DumpOptions struct {
	// Workers/QueueDepth/ChunkElems mirror ckpt.WriteOptions: the client
	// compresses chunks through the same pipelined streaming engine, but
	// drains them into PUT frames instead of a local medium.
	Workers    int
	QueueDepth int
	ChunkElems int
	// ProjectedRatio and DeadlineSeconds feed the daemon's admission
	// pricing (see OpenRequest).
	ProjectedRatio  float64
	DeadlineSeconds float64
	// WireCodec, when non-empty, negotiates compressed payload frames: each
	// chunk ships as a framePutZ declaring its raw size so the daemon can
	// inflate-verify it and credit the wire time saved. It must equal the
	// set's codec — the wire carries the same container blobs a plain dump
	// would, just accounted (and verified) as compressed transfers.
	WireCodec string
}

// Dump negotiates a session for set under the given tenant identity,
// streams its chunks, and returns the daemon's close-time accounting. An
// admission denial is returned as a *Reject error (errors.As-able); the
// set is not written.
func (c *Client) Dump(tenant string, set ckpt.Set, opts DumpOptions) (Result, error) {
	req := OpenRequest{
		Tenant:          tenant,
		SetName:         set.Name,
		Meta:            set.Meta,
		Codec:           set.Codec,
		Ranks:           set.Ranks,
		RelEB:           set.MeanRelEB(),
		ProjectedRatio:  opts.ProjectedRatio,
		DeadlineSeconds: opts.DeadlineSeconds,
		WireCodec:       opts.WireCodec,
	}
	return c.dump(set, req, opts)
}

func (c *Client) dump(set ckpt.Set, req OpenRequest, opts DumpOptions) (Result, error) {
	if req.WireCodec != "" && req.WireCodec != set.Codec {
		return Result{}, fmt.Errorf("svc: wire codec %q does not match set codec %q",
			req.WireCodec, set.Codec)
	}
	req.Fields = make([]ckpt.FieldInfo, len(set.Fields))
	for i, f := range set.Fields {
		req.Fields[i] = ckpt.FieldInfo{Name: f.Name, Dims: f.Dims, ErrorBound: f.ErrorBound}
	}
	if err := writeFrame(c.rw, frame{Type: frameOpen, Payload: req.encode()}); err != nil {
		return Result{}, err
	}
	rf, err := readFrame(c.rw)
	if err != nil {
		return Result{}, err
	}
	switch rf.Type {
	case frameOpenOK:
	case frameReject:
		rej, perr := parseReject(rf.Payload)
		if perr != nil {
			return Result{}, perr
		}
		return Result{}, &rej
	case frameErr:
		return Result{}, fmt.Errorf("svc: open failed: %s", rf.Payload)
	default:
		return Result{}, fmt.Errorf("%w: unexpected reply to open", ErrCorruptFrame)
	}
	acc, err := parseOpenAccept(rf.Payload)
	if err != nil {
		return Result{}, err
	}
	if acc.WireCodec != req.WireCodec {
		return Result{}, fmt.Errorf("%w: daemon echoed wire codec %q, negotiated %q",
			ErrCorruptFrame, acc.WireCodec, req.WireCodec)
	}
	sid := acc.Session

	// The lanes are ckpt.Write's; the in-order drain ships PUT frames instead
	// of writing a local medium.
	nFields := len(set.Fields)
	n := set.Ranks * nFields
	eng := stream.Start(n, stream.Options{
		Name:    "svc.client",
		Workers: opts.Workers, QueueDepth: opts.QueueDepth,
	}, func(int) stream.ProduceFunc { return ckpt.PackLane(&set, opts.ChunkElems) })
	defer eng.Close()
	// The drain writes each chunk's frame and moves on; acks, on its own
	// goroutine, takes the replies in the same order. sent carries the index
	// of every frame fully written — one reply is owed per entry — and never
	// blocks the drain: it holds all n. Dump does not return, and sends no
	// close, while that goroutine is running.
	sent := make(chan int, n)
	acks := &ackReader{r: c.rw, done: make(chan struct{})}
	go acks.run(sent)
	putType := framePut
	if req.WireCodec != "" {
		putType = framePutZ
	}
	var buf []byte
	err = eng.Drain(func(d stream.Item) error {
		if d.Err != nil {
			return fmt.Errorf("svc: chunk %d: %w", d.Idx, d.Err)
		}
		if acks.failed.Load() {
			return errStopSending
		}
		h := putHeader{Idx: d.Idx, CRC: ckpt.Digest(d.Blob)}
		if putType == framePutZ {
			h.RawLen = int64(req.Fields[d.Idx%nFields].Elems()) * 4
		}
		var err error
		if buf, err = appendPutFrame(buf[:0], putType, sid, h, d.Blob); err != nil {
			return err
		}
		if _, err := c.rw.Write(buf); err != nil {
			return err
		}
		sent <- d.Idx
		return nil
	})
	close(sent)
	<-acks.done
	// The first refusal is the cause of whatever the drain saw after it.
	if acks.err != nil {
		err = acks.err
	}
	if err != nil {
		return Result{}, err
	}

	if err := writeFrame(c.rw, frame{Type: frameClose, Session: sid}); err != nil {
		return Result{}, err
	}
	cf, err := readFrame(c.rw)
	if err != nil {
		return Result{}, err
	}
	if cf.Type == frameErr {
		return Result{}, fmt.Errorf("svc: close failed: %s", cf.Payload)
	}
	if cf.Type != frameCloseOK {
		return Result{}, fmt.Errorf("%w: unexpected reply to close", ErrCorruptFrame)
	}
	return parseResult(cf.Payload)
}

// errStopSending ends the drain once the ack reader has recorded a failure;
// Dump reports that failure, never this.
var errStopSending = errors.New("svc: a put was refused; not sending the rest")

// ackReader takes the replies to one dump's put frames off the connection,
// in send order, on its own goroutine.
type ackReader struct {
	r io.Reader
	// failed tells the drain to stop sending; err, the first failure, is the
	// reader's until done is closed.
	failed atomic.Bool
	err    error
	done   chan struct{}
}

// run reads one reply per index received from sent and holds it to that
// index. After the first refusal it keeps reading — every frame sent is
// answered, and a daemon blocked on an unread reply would stop reading
// frames — but a reply that cannot be read ends it: nothing more will come.
func (a *ackReader) run(sent <-chan int) {
	defer close(a.done)
	for idx := range sent {
		pf, err := readFrame(a.r)
		if err != nil {
			a.fail(err)
			return
		}
		if a.err == nil {
			if err := checkPutReply(pf, idx); err != nil {
				a.fail(err)
			}
		}
	}
}

// fail records the first failure and stops the sender.
func (a *ackReader) fail(err error) {
	if a.err == nil {
		a.err = err
		a.failed.Store(true)
	}
}

// checkPutReply holds one reply to the put it answers.
func checkPutReply(pf frame, idx int) error {
	if pf.Type == frameErr {
		return fmt.Errorf("svc: put %d failed: %s", idx, pf.Payload)
	}
	if pf.Type != framePutOK {
		return fmt.Errorf("%w: unexpected reply to put", ErrCorruptFrame)
	}
	pr, err := parsePutReply(pf.Payload)
	if err != nil {
		return err
	}
	if pr.Idx != idx {
		return fmt.Errorf("%w: put ack for %d, want %d", ErrCorruptFrame, pr.Idx, idx)
	}
	return nil
}

// List fetches the daemon's finalized-set table.
func (c *Client) List() ([]SetEntry, error) {
	if err := writeFrame(c.rw, frame{Type: frameList}); err != nil {
		return nil, err
	}
	f, err := readFrame(c.rw)
	if err != nil {
		return nil, err
	}
	if f.Type == frameErr {
		return nil, fmt.Errorf("svc: list failed: %s", f.Payload)
	}
	if f.Type != frameListOK {
		return nil, fmt.Errorf("%w: unexpected reply to list", ErrCorruptFrame)
	}
	return parseSetEntries(f.Payload)
}

// Restore asks the daemon to restore and verify a finalized set
// server-side, returning the priced read profile.
func (c *Client) Restore(name string) (RestoreReply, error) {
	if err := writeFrame(c.rw, frame{Type: frameRestoreReq, Payload: encodeSetName(name)}); err != nil {
		return RestoreReply{}, err
	}
	f, err := readFrame(c.rw)
	if err != nil {
		return RestoreReply{}, err
	}
	if f.Type == frameErr {
		return RestoreReply{}, fmt.Errorf("svc: restore failed: %s", f.Payload)
	}
	if f.Type != frameRestoreOK {
		return RestoreReply{}, fmt.Errorf("%w: unexpected reply to restore", ErrCorruptFrame)
	}
	return parseRestoreReply(f.Payload)
}

// IsReject reports whether err is an admission denial and returns it.
func IsReject(err error) (*Reject, bool) {
	var rej *Reject
	if errors.As(err, &rej) {
		return rej, true
	}
	return nil, false
}
