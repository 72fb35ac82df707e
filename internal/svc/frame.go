// Package svc implements lcpiod, a long-running checkpoint service that
// accepts concurrent dump sessions from many tenants over a byte-stream
// transport and places them on one shared simulated medium.
//
// The daemon owns three scarce resources and makes all three visible to
// clients at session granularity:
//
//   - medium bandwidth — every admitted chunk rides a single shared
//     simulated NFS timeline, so a busy daemon queues writes and the
//     queue wait is reported per chunk (backpressure);
//   - medium space — sessions negotiate a contiguous extent at open, fill
//     it from the front and return what the finalized set does not occupy,
//     and tenants have byte quotas;
//   - energy — admission is priced with the paper's Eqn 2 cost model at
//     the Eqn 3 tuned clocks before any payload byte moves: a session
//     whose projected joules exceed the tenant's budget, or whose
//     projected wall time misses its deadline, is rejected at open.
//
// The wire protocol is deliberately dumb: length-prefixed frames, exactly
// one reply per request, replies in request order. Put frames are
// pipelined — a client may have several unanswered, the daemon verifies
// them concurrently and commits and acknowledges them in arrival order —
// and every other frame is a barrier, handled once the puts before it are
// answered (see ServeConn). A chunk lands at its session's running offset,
// so a set whose chunks arrive in index order — what Client.Dump sends — is
// byte for byte the image ckpt.Write produces, and any finalized set
// restores through the unmodified ckpt.Restore path (see Server.OpenSet).
package svc

import (
	"errors"
	"fmt"
	"io"
	"math"

	"lcpio/internal/ckpt"
	"lcpio/internal/compress"
	"lcpio/internal/wire"
)

// Frame layout: magic(4) | type(1) | session(4) | payload length(4) |
// payload. Every request frame gets exactly one reply frame, and replies
// leave in the order their requests arrived; the session id echoes the
// openOK-assigned id (0 before open and for sessionless requests such as
// list).
const (
	frameMagic    = 0x6c737663 // "lsvc"
	frameHdrLen   = 13
	maxPayloadLen = 64 << 20
)

type frameType uint8

const (
	frameInvalid    frameType = iota
	frameOpen                 // client → server: OpenRequest
	frameOpenOK               // server → client: OpenAccept
	frameReject               // server → client: Reject (admission denied)
	framePut                  // client → server: chunk index + blob digest + blob
	framePutOK                // server → client: PutReply
	frameClose                // client → server: finalize session
	frameCloseOK              // server → client: Result
	frameList                 // client → server: enumerate finalized sets
	frameListOK               // server → client: SetEntry list
	frameRestoreReq           // client → server: set name (server-side restore)
	frameRestoreOK            // server → client: RestoreReply
	frameErr                  // server → client: protocol/session error string
	frameTypeEnd
)

// ErrCorruptFrame is returned for malformed frames and payloads.
var ErrCorruptFrame = errors.New("svc: corrupt frame")

type frame struct {
	Type    frameType
	Session uint32
	Payload []byte
}

func appendFrame(b []byte, f frame) []byte {
	b = wire.AppendUint32(b, frameMagic)
	b = append(b, byte(f.Type))
	b = wire.AppendUint32(b, f.Session)
	b = wire.AppendUint32(b, uint32(len(f.Payload)))
	return append(b, f.Payload...)
}

func writeFrame(w io.Writer, f frame) error {
	if len(f.Payload) > maxPayloadLen {
		return fmt.Errorf("svc: frame payload %d exceeds cap %d", len(f.Payload), maxPayloadLen)
	}
	_, err := w.Write(appendFrame(make([]byte, 0, frameHdrLen+len(f.Payload)), f))
	return err
}

// readFrame reads exactly one frame from r, refusing oversized payloads
// before allocating them.
func readFrame(r io.Reader) (frame, error) {
	f, n, err := readFrameHeader(r)
	if err != nil {
		return frame{}, err
	}
	f.Payload, err = readPayload(r, nil, n)
	return f, err
}

// readFrameHeader reads one frame header and returns the payload length it
// declares (already held to maxPayloadLen) without consuming the payload.
func readFrameHeader(r io.Reader) (frame, int, error) {
	var hdr [frameHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, 0, err
	}
	return parseFrameHeader(hdr[:])
}

// readPayload reads a frame's n payload bytes into buf's backing array,
// allocating only when it is too small.
func readPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("svc: truncated frame payload: %w", err)
	}
	return buf, nil
}

// parseFrameHeader decodes a frame header and returns the declared payload
// length without consuming it.
func parseFrameHeader(b []byte) (frame, int, error) {
	rd := wire.NewReader(b, ErrCorruptFrame)
	magic := rd.Uint32()
	ft := frameType(rd.Bytes(1)[0])
	sess := rd.Uint32()
	n := rd.Uint32()
	if rd.Err() != nil || magic != frameMagic {
		return frame{}, 0, ErrCorruptFrame
	}
	if ft == frameInvalid || ft >= frameTypeEnd {
		return frame{}, 0, fmt.Errorf("%w: unknown frame type %d", ErrCorruptFrame, ft)
	}
	if n > maxPayloadLen {
		return frame{}, 0, fmt.Errorf("%w: payload length %d exceeds cap", ErrCorruptFrame, n)
	}
	return frame{Type: ft, Session: sess}, int(n), nil
}

// ParseFrame decodes one complete frame from the head of b and returns it
// with the number of bytes consumed. It is the entry point the wire-framing
// fuzz target drives: any input must either parse or fail cleanly, never
// over-allocate, and re-encode to the consumed bytes.
func ParseFrame(b []byte) (frame, int, error) {
	if len(b) < frameHdrLen {
		return frame{}, 0, fmt.Errorf("%w: short header", ErrCorruptFrame)
	}
	f, n, err := parseFrameHeader(b[:frameHdrLen])
	if err != nil {
		return frame{}, 0, err
	}
	if len(b) < frameHdrLen+n {
		return frame{}, 0, fmt.Errorf("%w: truncated payload", ErrCorruptFrame)
	}
	f.Payload = b[frameHdrLen : frameHdrLen+n]
	return f, frameHdrLen + n, nil
}

// Payload caps, aligned with the ckpt format's parse limits so anything the
// daemon admits is also storable: a field's shape is held to package wire's
// caps, the ones ckpt reads a manifest under. maxRawB is the daemon's own
// cap, on the raw bytes of a whole set, and keeps quota and extent
// arithmetic far from overflow.
const (
	maxNameLen = 256
	maxMetaLen = 1 << 12
	maxRanks   = 1 << 16
	maxFields  = 1 << 12
	maxChunks  = 1 << 22 // ranks × fields: ckpt's manifest parse refuses more
	maxRawB    = int64(1) << 40
	// maxExpansion bounds a projected file relative to the largest raw
	// set: incompressible data plus framing stores at a ratio a little
	// under 1, never at a vanishing one.
	maxExpansion = 4
)

var errPricingInputs = fmt.Errorf("%w: pricing inputs", ErrCorruptFrame)

// projectedBytes is admission pricing's float→bytes conversion: the size
// rawBytes is projected to store at ratio. ok is false when a hostile ratio
// (NaN, or small enough to overflow the conversion downstream extent
// arithmetic relies on) puts the projection beyond maxExpansion×maxRawB.
func projectedBytes(rawBytes int64, ratio float64) (n int64, ok bool) {
	p := float64(rawBytes) / ratio
	if !(p <= maxExpansion*float64(maxRawB)) {
		return 0, false
	}
	return int64(p), true
}

// OpenRequest negotiates a dump session: who is asking, the set geometry
// (which fixes the raw byte count and per-rank extent need), and the
// pricing inputs the server cannot derive on its own.
type OpenRequest struct {
	Tenant  string
	SetName string
	Meta    string
	Codec   string
	Ranks   int
	Fields  []ckpt.FieldInfo
	// RelEB is the payload-weighted range-relative error bound
	// (ckpt.Set.MeanRelEB) — data-dependent, so the client ships it.
	RelEB float64
	// ProjectedRatio is the client's expected compression ratio; 0 takes
	// the server default. Admission pricing and extent sizing use it.
	ProjectedRatio float64
	// DeadlineSeconds bounds the projected dump wall time (Eqn 2 seconds
	// at the tuned clocks); 0 means no deadline.
	DeadlineSeconds float64
	// WireCodec, when non-empty, negotiates a compressed-wire session: the
	// daemon checks every put's blob against its field's shape at the wire
	// boundary before storing it byte-identically, and credits the transfer
	// time it saved over the field's raw floats. Must equal Codec — the wire
	// carries the same container blobs a plain session ships, just accounted
	// (and verified) as compressed transfers.
	WireCodec string
}

// RawBytes returns the total uncompressed input size the request describes.
func (r OpenRequest) RawBytes() int64 {
	var n int64
	for _, f := range r.Fields {
		n += int64(f.Elems()) * 4 * int64(r.Ranks)
	}
	return n
}

func (r OpenRequest) encode() []byte {
	var b []byte
	b = wire.AppendString(b, r.Tenant)
	b = wire.AppendString(b, r.SetName)
	b = wire.AppendString(b, r.Meta)
	b = wire.AppendString(b, r.Codec)
	b = wire.AppendUint32(b, uint32(r.Ranks))
	b = wire.AppendUint32(b, uint32(len(r.Fields)))
	for _, f := range r.Fields {
		b = wire.AppendString(b, f.Name)
		b = wire.AppendDims(b, f.Dims)
		b = wire.AppendFloat64(b, f.ErrorBound)
	}
	b = wire.AppendFloat64(b, r.RelEB)
	b = wire.AppendFloat64(b, r.ProjectedRatio)
	b = wire.AppendFloat64(b, r.DeadlineSeconds)
	b = wire.AppendString(b, r.WireCodec)
	return b
}

// parseOpenRequest validates geometry hard enough that arithmetic on it
// downstream (extent sizing, quota math) cannot overflow: every dimension,
// the per-rank element product, and the total raw size are capped.
func parseOpenRequest(b []byte) (OpenRequest, error) {
	rd := wire.NewReader(b, ErrCorruptFrame)
	var r OpenRequest
	if r.Tenant = rd.String(maxNameLen); r.Tenant == "" {
		return r, fmt.Errorf("%w: tenant name", ErrCorruptFrame)
	}
	if r.SetName = rd.String(maxNameLen); r.SetName == "" {
		return r, fmt.Errorf("%w: set name", ErrCorruptFrame)
	}
	if r.Meta = rd.String(maxMetaLen); rd.Err() != nil {
		return r, fmt.Errorf("%w: meta", ErrCorruptFrame)
	}
	if r.Codec = rd.String(maxNameLen); r.Codec == "" {
		return r, fmt.Errorf("%w: codec", ErrCorruptFrame)
	}
	if err := compress.CheckName(r.Codec); err != nil {
		return r, err
	}
	r.Ranks = int(rd.Uint32())
	nf := int(rd.Uint32())
	if rd.Err() != nil || r.Ranks <= 0 || r.Ranks > maxRanks || nf <= 0 || nf > maxFields || r.Ranks*nf > maxChunks {
		return r, fmt.Errorf("%w: geometry", ErrCorruptFrame)
	}
	r.Fields = make([]ckpt.FieldInfo, nf)
	var raw int64
	for i := range r.Fields {
		f := &r.Fields[i]
		if f.Name = rd.String(maxNameLen); f.Name == "" {
			return r, fmt.Errorf("%w: field name", ErrCorruptFrame)
		}
		var elems int
		if f.Dims, elems = rd.Dims(nil); rd.Err() != nil {
			return r, fmt.Errorf("%w: field dims", ErrCorruptFrame)
		}
		f.ErrorBound = rd.Float64()
		if !(f.ErrorBound > 0) || math.IsInf(f.ErrorBound, 0) {
			return r, fmt.Errorf("%w: error bound", ErrCorruptFrame)
		}
		raw += int64(elems) * 4 * int64(r.Ranks)
		if raw > maxRawB {
			return r, fmt.Errorf("%w: set too large", ErrCorruptFrame)
		}
	}
	r.RelEB = rd.Float64()
	r.ProjectedRatio = rd.Float64()
	r.DeadlineSeconds = rd.Float64()
	if r.WireCodec = rd.String(maxNameLen); rd.Err() != nil {
		return r, fmt.Errorf("%w: wire codec", ErrCorruptFrame)
	}
	if rd.Remaining() != 0 {
		return r, fmt.Errorf("%w: trailing bytes", ErrCorruptFrame)
	}
	if r.WireCodec != "" && r.WireCodec != r.Codec {
		return r, fmt.Errorf("%w: wire codec %q disagrees with set codec %q",
			ErrCorruptFrame, r.WireCodec, r.Codec)
	}
	if !(r.RelEB > 0) || r.RelEB > 1 ||
		r.ProjectedRatio < 0 || math.IsInf(r.ProjectedRatio, 0) || math.IsNaN(r.ProjectedRatio) ||
		r.DeadlineSeconds < 0 || math.IsInf(r.DeadlineSeconds, 0) || math.IsNaN(r.DeadlineSeconds) {
		return r, errPricingInputs
	}
	// 0 means "price at the server default"; anything else must project a
	// file the extent arithmetic can represent.
	if r.ProjectedRatio > 0 {
		if _, ok := projectedBytes(raw, r.ProjectedRatio); !ok {
			return r, errPricingInputs
		}
	}
	return r, nil
}

// OpenAccept is the server's half of a successful negotiation: where the
// session's extent landed and what the admission decision cost.
type OpenAccept struct {
	Session uint32
	// ExtentBase/ExtentBytes is the contiguous region reserved on the
	// shared medium for the whole set: header, chunks in arrival order,
	// manifest and footer. A put that would leave no room for the tail is
	// refused as a ratio shortfall; what the finalized set does not occupy
	// goes back to the allocator at close.
	ExtentBase  int64
	ExtentBytes int64
	// ProjectedJoules is the Eqn 2 admission price quoted at open.
	ProjectedJoules float64
	// AdmissionWaitSeconds is wall time spent queued for a session slot
	// or quota headroom before admission.
	AdmissionWaitSeconds float64
	// WireCodec echoes the negotiated compressed-wire codec ("" when the
	// session ships plain frames).
	WireCodec string
}

func (a OpenAccept) encode() []byte {
	var b []byte
	b = wire.AppendUint32(b, a.Session)
	b = wire.AppendUint64(b, uint64(a.ExtentBase))
	b = wire.AppendUint64(b, uint64(a.ExtentBytes))
	b = wire.AppendFloat64(b, a.ProjectedJoules)
	b = wire.AppendFloat64(b, a.AdmissionWaitSeconds)
	b = wire.AppendString(b, a.WireCodec)
	return b
}

func parseOpenAccept(b []byte) (OpenAccept, error) {
	rd := wire.NewReader(b, ErrCorruptFrame)
	a := OpenAccept{
		Session:     rd.Uint32(),
		ExtentBase:  int64(rd.Uint64()),
		ExtentBytes: int64(rd.Uint64()),
	}
	a.ProjectedJoules = rd.Float64()
	a.AdmissionWaitSeconds = rd.Float64()
	a.WireCodec = rd.String(maxNameLen)
	if rd.Err() != nil || rd.Remaining() != 0 ||
		a.ExtentBase < 0 || a.ExtentBytes < 0 {
		return a, fmt.Errorf("%w: open accept", ErrCorruptFrame)
	}
	return a, nil
}

// RejectCode classifies why admission was denied.
type RejectCode uint8

const (
	RejectUnknown RejectCode = iota
	// RejectEnergy: projected joules exceed the tenant's per-session
	// energy budget.
	RejectEnergy
	// RejectDeadline: projected wall time at the tuned clocks misses the
	// requested deadline.
	RejectDeadline
	// RejectQuota: the tenant's byte quota cannot fit the extent even
	// after every in-flight reservation resolves.
	RejectQuota
	// RejectCapacity: the shared medium has no room for the extent.
	RejectCapacity
	// RejectTenant: the tenant is not registered with the daemon.
	RejectTenant
	rejectCodeEnd
)

func (c RejectCode) String() string {
	switch c {
	case RejectEnergy:
		return "energy budget"
	case RejectDeadline:
		return "deadline"
	case RejectQuota:
		return "quota"
	case RejectCapacity:
		return "capacity"
	case RejectTenant:
		return "unknown tenant"
	}
	return "unknown"
}

// Reject is the admission-denied reply; it carries the price that sank the
// request so clients can re-plan (smaller set, looser bound, later retry).
type Reject struct {
	Code            RejectCode
	Detail          string
	ProjectedJoules float64
	BudgetJoules    float64
}

// Error makes a Reject usable as the client-side error.
func (r *Reject) Error() string {
	return fmt.Sprintf("svc: admission rejected (%s): %s", r.Code, r.Detail)
}

func (r Reject) encode() []byte {
	var b []byte
	b = append(b, byte(r.Code))
	b = wire.AppendString(b, r.Detail)
	b = wire.AppendFloat64(b, r.ProjectedJoules)
	b = wire.AppendFloat64(b, r.BudgetJoules)
	return b
}

func parseReject(b []byte) (Reject, error) {
	rd := wire.NewReader(b, ErrCorruptFrame)
	var r Reject
	code := rd.Bytes(1)
	if rd.Err() != nil || RejectCode(code[0]) == RejectUnknown || RejectCode(code[0]) >= rejectCodeEnd {
		return r, fmt.Errorf("%w: reject code", ErrCorruptFrame)
	}
	r.Code = RejectCode(code[0])
	if r.Detail = rd.String(maxMetaLen); rd.Err() != nil {
		return r, fmt.Errorf("%w: reject detail", ErrCorruptFrame)
	}
	r.ProjectedJoules = rd.Float64()
	r.BudgetJoules = rd.Float64()
	if rd.Err() != nil || rd.Remaining() != 0 {
		return r, fmt.Errorf("%w: reject", ErrCorruptFrame)
	}
	return r, nil
}

// putHeader is what precedes the blob in a put payload: the chunk index and
// the sender's ckpt.Digest of the blob. The daemon checks the digest before
// anything else looks at the blob and stores that verified value as the
// chunk's manifest CRC, so a byte flipped between the client's packer and the
// daemon's medium is refused whatever it would have decoded to. Everything
// else about a chunk — its field, its shape, its raw size, whether it is
// checked — the daemon takes from the session its index falls in.
type putHeader struct {
	Idx int
	CRC uint32
}

const putHdrLen = 4 + 4 // idx | crc

// appendPutFrame appends one complete put frame — frame header, put header,
// blob — to b. The sender builds each frame in one buffer it reuses, so a
// blob is copied once on its way to the socket and the frame leaves in one
// Write.
func appendPutFrame(b []byte, sess uint32, h putHeader, blob []byte) ([]byte, error) {
	n := putHdrLen + len(blob)
	if n > maxPayloadLen {
		return b, fmt.Errorf("svc: frame payload %d exceeds cap %d", n, maxPayloadLen)
	}
	b = wire.AppendUint32(b, frameMagic)
	b = append(b, byte(framePut))
	b = wire.AppendUint32(b, sess)
	b = wire.AppendUint32(b, uint32(n))
	b = wire.AppendUint32(b, uint32(h.Idx))
	b = wire.AppendUint32(b, h.CRC)
	return append(b, blob...), nil
}

// parsePut decodes a put frame's payload; blob aliases b.
func parsePut(b []byte) (h putHeader, blob []byte, err error) {
	rd := wire.NewReader(b, ErrCorruptFrame)
	h.Idx = int(rd.Uint32())
	h.CRC = rd.Uint32()
	if rd.Err() != nil {
		return h, nil, fmt.Errorf("%w: put header", ErrCorruptFrame)
	}
	if blob = b[rd.Offset():]; len(blob) == 0 {
		return h, nil, fmt.Errorf("%w: put with an empty blob", ErrCorruptFrame)
	}
	return h, blob, nil
}

// PutReply acknowledges one chunk with its slice of the shared-medium
// timeline: how long the chunk sat queued behind other tenants' writes,
// and whether that wait crossed the saturation window (backpressure).
type PutReply struct {
	Idx              int
	QueueWaitSeconds float64
	Backpressure     bool
}

func (p PutReply) encode() []byte {
	var b []byte
	b = wire.AppendUint32(b, uint32(p.Idx))
	b = wire.AppendFloat64(b, p.QueueWaitSeconds)
	flag := byte(0)
	if p.Backpressure {
		flag = 1
	}
	return append(b, flag)
}

func parsePutReply(b []byte) (PutReply, error) {
	rd := wire.NewReader(b, ErrCorruptFrame)
	var p PutReply
	p.Idx = int(rd.Uint32())
	p.QueueWaitSeconds = rd.Float64()
	flag := rd.Bytes(1)
	if rd.Err() != nil || rd.Remaining() != 0 || flag[0] > 1 {
		return p, fmt.Errorf("%w: put reply", ErrCorruptFrame)
	}
	p.Backpressure = flag[0] == 1
	return p, nil
}

// Result is the closeOK payload: everything the session cost, attributed
// at the paper's tuned clocks. CompressJoules + TransitJoules == Joules,
// and the split reconciles with a phases.CheckpointCampaign of the same
// set to well under the 1% acceptance bar (the daemon prices the same
// workloads at the same clocks).
type Result struct {
	SetBytes     int64 // header + payload + manifest + footer (bytes moved)
	PayloadBytes int64
	RawBytes     int64
	Chunks       int
	// Energy attribution (Eqn 2 at the Eqn 3 clocks).
	CompressJoules float64
	TransitJoules  float64
	Joules         float64
	// SimSeconds is the session's simulated makespan: compress pipeline
	// plus its serialized share of the medium. QueueWaitSeconds is the
	// part spent blocked behind other sessions' writes.
	QueueWaitSeconds   float64
	SimSeconds         float64
	BackpressureEvents int64
	// GoodputBps is payload bits landed per simulated second.
	GoodputBps float64
	// Extent placement: ExtentBase is the OpenAccept's, ExtentBytes what of
	// that reservation the finalized set occupies — SetBytes, since a set
	// has no holes; the rest was refunded at close.
	ExtentBase  int64
	ExtentBytes int64
	// AdmissionWaitSeconds echoes the open-time queue wait (wall time).
	AdmissionWaitSeconds float64
	// WireCodec is the negotiated compressed-wire codec ("" for plain
	// sessions); WireSavedSeconds is the shared-medium transfer time the
	// compressed chunks saved over shipping the raw floats, and
	// WireVerifiedChunks counts the chunks the daemon checked at the wire
	// boundary — every chunk of a compressed-wire session, none of a plain
	// one.
	WireCodec          string
	WireSavedSeconds   float64
	WireVerifiedChunks int64
}

func (r Result) encode() []byte {
	var b []byte
	b = wire.AppendUint64(b, uint64(r.SetBytes))
	b = wire.AppendUint64(b, uint64(r.PayloadBytes))
	b = wire.AppendUint64(b, uint64(r.RawBytes))
	b = wire.AppendUint32(b, uint32(r.Chunks))
	b = wire.AppendFloat64(b, r.CompressJoules)
	b = wire.AppendFloat64(b, r.TransitJoules)
	b = wire.AppendFloat64(b, r.Joules)
	b = wire.AppendFloat64(b, r.QueueWaitSeconds)
	b = wire.AppendFloat64(b, r.SimSeconds)
	b = wire.AppendUint64(b, uint64(r.BackpressureEvents))
	b = wire.AppendFloat64(b, r.GoodputBps)
	b = wire.AppendUint64(b, uint64(r.ExtentBase))
	b = wire.AppendUint64(b, uint64(r.ExtentBytes))
	b = wire.AppendFloat64(b, r.AdmissionWaitSeconds)
	b = wire.AppendString(b, r.WireCodec)
	b = wire.AppendFloat64(b, r.WireSavedSeconds)
	b = wire.AppendUint64(b, uint64(r.WireVerifiedChunks))
	return b
}

func parseResult(b []byte) (Result, error) {
	rd := wire.NewReader(b, ErrCorruptFrame)
	var r Result
	r.SetBytes = int64(rd.Uint64())
	r.PayloadBytes = int64(rd.Uint64())
	r.RawBytes = int64(rd.Uint64())
	r.Chunks = int(rd.Uint32())
	r.CompressJoules = rd.Float64()
	r.TransitJoules = rd.Float64()
	r.Joules = rd.Float64()
	r.QueueWaitSeconds = rd.Float64()
	r.SimSeconds = rd.Float64()
	r.BackpressureEvents = int64(rd.Uint64())
	r.GoodputBps = rd.Float64()
	r.ExtentBase = int64(rd.Uint64())
	r.ExtentBytes = int64(rd.Uint64())
	r.AdmissionWaitSeconds = rd.Float64()
	r.WireCodec = rd.String(maxNameLen)
	r.WireSavedSeconds = rd.Float64()
	r.WireVerifiedChunks = int64(rd.Uint64())
	if rd.Err() != nil || rd.Remaining() != 0 ||
		r.SetBytes < 0 || r.PayloadBytes < 0 || r.RawBytes < 0 || r.Chunks < 0 ||
		r.WireVerifiedChunks < 0 {
		return r, fmt.Errorf("%w: result", ErrCorruptFrame)
	}
	return r, nil
}

// SetEntry is one row of a list reply.
type SetEntry struct {
	Name    string
	Tenant  string
	Bytes   int64
	Joules  float64
	RawByte int64
}

func encodeSetEntries(entries []SetEntry) []byte {
	var b []byte
	b = wire.AppendUint32(b, uint32(len(entries)))
	for _, e := range entries {
		b = wire.AppendString(b, e.Name)
		b = wire.AppendString(b, e.Tenant)
		b = wire.AppendUint64(b, uint64(e.Bytes))
		b = wire.AppendFloat64(b, e.Joules)
		b = wire.AppendUint64(b, uint64(e.RawByte))
	}
	return b
}

func parseSetEntries(b []byte) ([]SetEntry, error) {
	rd := wire.NewReader(b, ErrCorruptFrame)
	n := int(rd.Uint32())
	if rd.Err() != nil || n < 0 || n > 1<<20 {
		return nil, fmt.Errorf("%w: list count", ErrCorruptFrame)
	}
	entries := make([]SetEntry, 0, min(n, 1024))
	for i := 0; i < n; i++ {
		var e SetEntry
		if e.Name = rd.String(maxNameLen); rd.Err() != nil {
			return nil, fmt.Errorf("%w: list name", ErrCorruptFrame)
		}
		if e.Tenant = rd.String(maxNameLen); rd.Err() != nil {
			return nil, fmt.Errorf("%w: list tenant", ErrCorruptFrame)
		}
		e.Bytes = int64(rd.Uint64())
		e.Joules = rd.Float64()
		e.RawByte = int64(rd.Uint64())
		if rd.Err() != nil {
			return nil, fmt.Errorf("%w: list entry", ErrCorruptFrame)
		}
		entries = append(entries, e)
	}
	if rd.Remaining() != 0 {
		return nil, fmt.Errorf("%w: list trailing bytes", ErrCorruptFrame)
	}
	return entries, nil
}

// RestoreReply summarizes a server-side restore+verify of a finalized set:
// the daemon reads the set back through the shared medium and prices the
// read at the tuned clock.
type RestoreReply struct {
	Chunks          int
	RawBytes        int64
	SimReadSeconds  float64
	ReadJoules      float64
	DecompressRatio float64
}

func (r RestoreReply) encode() []byte {
	var b []byte
	b = wire.AppendUint32(b, uint32(r.Chunks))
	b = wire.AppendUint64(b, uint64(r.RawBytes))
	b = wire.AppendFloat64(b, r.SimReadSeconds)
	b = wire.AppendFloat64(b, r.ReadJoules)
	b = wire.AppendFloat64(b, r.DecompressRatio)
	return b
}

func parseRestoreReply(b []byte) (RestoreReply, error) {
	rd := wire.NewReader(b, ErrCorruptFrame)
	var r RestoreReply
	r.Chunks = int(rd.Uint32())
	r.RawBytes = int64(rd.Uint64())
	r.SimReadSeconds = rd.Float64()
	r.ReadJoules = rd.Float64()
	r.DecompressRatio = rd.Float64()
	if rd.Err() != nil || rd.Remaining() != 0 || r.Chunks < 0 || r.RawBytes < 0 {
		return r, fmt.Errorf("%w: restore reply", ErrCorruptFrame)
	}
	return r, nil
}

func encodeSetName(name string) []byte { return wire.AppendString(nil, name) }

func parseSetName(b []byte) (string, bool) {
	rd := wire.NewReader(b, ErrCorruptFrame)
	name := rd.String(maxNameLen)
	return name, name != "" && rd.Remaining() == 0
}
