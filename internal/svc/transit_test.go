package svc

import (
	"fmt"
	"strings"
	"testing"

	"lcpio/internal/ckpt"
	"lcpio/internal/container"
)

// TestWireCodecDumpRestoresByteIdentical is the compressed-wire acceptance
// check: a dump negotiated with --wire-codec ships framePutZ chunks, the
// daemon inflate-verifies every one, and the restored set is byte-identical
// to a plain dump of the same data.
func TestWireCodecDumpRestoresByteIdentical(t *testing.T) {
	srv := NewServer(Config{})
	if err := srv.AddTenant(TenantConfig{Name: "climate"}); err != nil {
		t.Fatal(err)
	}
	cl := startPair(t, srv)
	set := genSet("wire-z", 3, 5)
	res, err := cl.Dump("climate", set, DumpOptions{Workers: 2, WireCodec: "sz"})
	if err != nil {
		t.Fatalf("compressed-wire dump: %v", err)
	}
	if res.WireCodec != "sz" {
		t.Errorf("result wire codec %q, want sz", res.WireCodec)
	}
	if want := int64(set.Ranks * len(set.Fields)); res.WireVerifiedChunks != want {
		t.Errorf("verified %d chunks, want %d", res.WireVerifiedChunks, want)
	}
	if res.WireSavedSeconds <= 0 {
		t.Errorf("compressed wire saved %g s, want > 0", res.WireSavedSeconds)
	}
	restoreEqual(t, srv, "wire-z", set)

	// A plain dump of the same data must land the same payload bytes: the
	// wire codec changes framing and accounting, never stored content.
	plain := NewServer(Config{})
	if err := plain.AddTenant(TenantConfig{Name: "climate"}); err != nil {
		t.Fatal(err)
	}
	set2 := genSet("wire-p", 3, 5)
	res2, err := startPair(t, plain).Dump("climate", set2, DumpOptions{Workers: 2})
	if err != nil {
		t.Fatalf("plain dump: %v", err)
	}
	if res2.WireCodec != "" || res2.WireVerifiedChunks != 0 || res2.WireSavedSeconds != 0 {
		t.Errorf("plain dump carries wire accounting: %+v", res2)
	}
	if res.PayloadBytes != res2.PayloadBytes || res.SetBytes != res2.SetBytes {
		t.Errorf("wire codec changed stored bytes: %d/%d vs %d/%d",
			res.PayloadBytes, res.SetBytes, res2.PayloadBytes, res2.SetBytes)
	}
	if res.Joules != res2.Joules {
		t.Errorf("wire codec changed attributed energy: %g vs %g", res.Joules, res2.Joules)
	}
}

func TestWireCodecMismatchRejected(t *testing.T) {
	srv := NewServer(Config{})
	if err := srv.AddTenant(TenantConfig{Name: "climate"}); err != nil {
		t.Fatal(err)
	}
	cl := startPair(t, srv)
	set := genSet("wire-bad", 1, 1)
	if _, err := cl.Dump("climate", set, DumpOptions{WireCodec: "zfp"}); err == nil {
		t.Fatal("wire codec != set codec accepted")
	}
}

// TestPutZWithoutNegotiationRejected sends a compressed-wire chunk on a
// session that never negotiated one.
func TestPutZWithoutNegotiationRejected(t *testing.T) {
	srv := NewServer(Config{})
	if err := srv.AddTenant(TenantConfig{Name: "climate"}); err != nil {
		t.Fatal(err)
	}
	cl := startPair(t, srv)
	acc := openSession(t, cl, smallOpenReq("nz", ""))
	blob := smallBlob(t)
	if err := writeFrame(cl.rw, frame{Type: framePutZ, Session: acc.Session,
		Payload: encodePutZ(0, smallRawLen, blob)}); err != nil {
		t.Fatal(err)
	}
	rf, err := readFrame(cl.rw)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Type != frameErr {
		t.Fatalf("putZ without negotiation got %v, want error", rf.Type)
	}
}

// TestPutZLengthLieRejected declares a raw length that disagrees with the
// session's field geometry, and one the blob does not inflate to; then it
// sends corrupt blobs under the truthful length and a digest that matches
// them, as a sender with a broken packer would. The first refusal breaks a
// session, so each case opens its own and is held to the reason it names.
func TestPutZLengthLieRejected(t *testing.T) {
	srv := NewServer(Config{})
	if err := srv.AddTenant(TenantConfig{Name: "climate"}); err != nil {
		t.Fatal(err)
	}
	cases := 0
	rejected := func(elems int, rawLen int64, blob []byte, what, reason string) {
		t.Helper()
		cases++
		cl := startPair(t, srv)
		acc := openSession(t, cl, rampOpenReq(fmt.Sprintf("lie-%d", cases), "sz", elems))
		if err := writeFrame(cl.rw, frame{Type: framePutZ, Session: acc.Session,
			Payload: encodePutZ(0, rawLen, blob)}); err != nil {
			t.Fatal(err)
		}
		rf, err := readFrame(cl.rw)
		if err != nil {
			t.Fatal(err)
		}
		if rf.Type != frameErr || !strings.Contains(string(rf.Payload), reason) {
			t.Fatalf("%s got %v %q, want an error naming %q", what, rf.Type, rf.Payload, reason)
		}
	}
	blob := smallBlob(t)
	for _, lie := range []int64{smallRawLen + 4, smallRawLen * 2} {
		rejected(smallElems, lie, blob, fmt.Sprintf("raw-length lie %d", lie), "raw B")
	}
	// The declared length agrees with the session and the container header
	// does not: refused from the header, before anything is decoded.
	rejected(2*smallElems, 2*smallRawLen, blob, "container of half the declared elements", "elements")
	// A blob that no longer decodes must fail inflate verification under the
	// truthful length rather than land on the medium. The verification is a
	// decode: it catches what breaks the stream's structure, and the digest
	// beside it catches what does not.
	rejected(smallElems, smallRawLen, blob[:len(blob)-1], "blob cut one byte short", "inflate verification")

	// Two flipped payload bytes break a deflated partition's bit stream.
	// (smallBlob's partition is stored, deflate's tables would outweigh it,
	// and a flip inside stored codes decodes to other values: DESIGN 5i.)
	// The ramp is long enough that its one-bit-per-element Huffman stream
	// deflates; a blob under a bit per element can only be in that form.
	const bigElems = 1 << 14
	big := rampBlob(t, bigElems)
	if len(big) >= bigElems/8 {
		t.Fatalf("%d-element ramp packs to %d B: its partition no longer deflates, "+
			"and this case needs one that does", bigElems, len(big))
	}
	bad := append([]byte(nil), big...)
	bad[len(bad)/2] ^= 0xff
	bad[len(bad)-1] ^= 0xff
	rejected(bigElems, bigElems*4, bad, "bit-flipped blob", "inflate verification")
}

// TestPutZShapeLieRejected sends a field of dims [8 8] a chunk that holds
// its 64 elements as a 1-D [64] array, under the truthful raw length and a
// digest that matches. Accepted, it would finalize a set that no restore
// can read ("chunk shape [64] disagrees with manifest [8 8]"); the
// verification holds the chunk to the field's shape and refuses it.
func TestPutZShapeLieRejected(t *testing.T) {
	srv := NewServer(Config{})
	if err := srv.AddTenant(TenantConfig{Name: "climate"}); err != nil {
		t.Fatal(err)
	}
	cl := startPair(t, srv)
	req := smallOpenReq("shape-lie", "sz")
	req.Fields[0].Dims = []int{8, 8}
	acc := openSession(t, cl, req)
	if err := writeFrame(cl.rw, frame{Type: framePutZ, Session: acc.Session,
		Payload: encodePutZ(0, smallRawLen, smallBlob(t))}); err != nil {
		t.Fatal(err)
	}
	rf, err := readFrame(cl.rw)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Type != frameErr || !strings.Contains(string(rf.Payload), "want [8 8]") {
		t.Fatalf("a [64] chunk for an [8 8] field got %v %q, want a refusal naming the shape", rf.Type, rf.Payload)
	}
}

// encodePut and encodePutZ build put payloads the way the client does — the
// frame appendPutFrame writes, less its frame header — with the digest taken
// over the blob as given.
func encodePut(idx int, blob []byte) []byte {
	return putPayload(framePut, putHeader{Idx: idx, CRC: ckpt.Digest(blob)}, blob)
}

func encodePutZ(idx int, rawLen int64, blob []byte) []byte {
	return putPayload(framePutZ, putHeader{Idx: idx, RawLen: rawLen, CRC: ckpt.Digest(blob)}, blob)
}

func putPayload(t frameType, h putHeader, blob []byte) []byte {
	b, err := appendPutFrame(nil, t, 0, h, blob)
	if err != nil {
		panic(err)
	}
	return b[frameHdrLen:]
}

// watermark reads the allocator bump pointer (test-only).
func (s *Server) watermark() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextOff
}

const smallElems = 64
const smallRawLen = int64(smallElems) * 4

func smallOpenReq(name, wireCodec string) OpenRequest {
	return rampOpenReq(name, wireCodec, smallElems)
}

func smallBlob(t *testing.T) []byte { return rampBlob(t, smallElems) }

// rampOpenReq opens a one-rank, one-field sz set of elems float32s;
// rampBlob packs the linear ramp that fills it.
func rampOpenReq(name, wireCodec string, elems int) OpenRequest {
	return OpenRequest{
		Tenant: "climate", SetName: name, Codec: "sz", Ranks: 1,
		Fields:    []ckpt.FieldInfo{{Name: "p", Dims: []int{elems}, ErrorBound: 1e-3}},
		RelEB:     1e-3,
		WireCodec: wireCodec,
	}
}

func rampBlob(t *testing.T, elems int) []byte {
	t.Helper()
	data := make([]float32, elems)
	for i := range data {
		data[i] = float32(i) * 0.25
	}
	blob, err := container.Pack("sz", data, []int{elems}, 1e-3, container.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func openSession(t *testing.T, c *Client, req OpenRequest) OpenAccept {
	t.Helper()
	if err := writeFrame(c.rw, frame{Type: frameOpen, Payload: req.encode()}); err != nil {
		t.Fatal(err)
	}
	rf, err := readFrame(c.rw)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Type != frameOpenOK {
		t.Fatalf("open %q: frame %v payload %s", req.SetName, rf.Type, rf.Payload)
	}
	acc, err := parseOpenAccept(rf.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

// finishSession streams the single chunk of a smallOpenReq session and
// closes it, returning the daemon's accounting.
func finishSession(t *testing.T, c *Client, acc OpenAccept) Result {
	t.Helper()
	if err := writeFrame(c.rw, frame{Type: framePut, Session: acc.Session,
		Payload: encodePut(0, smallBlob(t))}); err != nil {
		t.Fatal(err)
	}
	rf, err := readFrame(c.rw)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Type != framePutOK {
		t.Fatalf("put: frame %v payload %s", rf.Type, rf.Payload)
	}
	if err := writeFrame(c.rw, frame{Type: frameClose, Session: acc.Session}); err != nil {
		t.Fatal(err)
	}
	if rf, err = readFrame(c.rw); err != nil {
		t.Fatal(err)
	}
	if rf.Type != frameCloseOK {
		t.Fatalf("close: frame %v payload %s", rf.Type, rf.Payload)
	}
	res, err := parseResult(rf.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// abortSession kills a session directly (the deterministic equivalent of
// the connection dying mid-dump).
func abortSession(t *testing.T, srv *Server, id uint32) {
	t.Helper()
	srv.mu.Lock()
	sess := srv.sessions[id]
	srv.mu.Unlock()
	if sess == nil {
		t.Fatalf("session %d not found", id)
	}
	srv.abort(sess)
}

// TestExtentReclaimOutOfOrderClose exercises the backward-coalescing
// allocator: sessions closing out of order record slack, and when the
// extents bordering the bump pointer finally free, the watermark retreats
// through every recorded hole in one walk.
func TestExtentReclaimOutOfOrderClose(t *testing.T) {
	srv := NewServer(Config{})
	if err := srv.AddTenant(TenantConfig{Name: "climate"}); err != nil {
		t.Fatal(err)
	}
	c1, c2, c3 := startPair(t, srv), startPair(t, srv), startPair(t, srv)

	acc1 := openSession(t, c1, smallOpenReq("s1", ""))
	acc2 := openSession(t, c2, smallOpenReq("s2", ""))
	acc3 := openSession(t, c3, smallOpenReq("s3", ""))
	if acc2.ExtentBase != acc1.ExtentBase+acc1.ExtentBytes ||
		acc3.ExtentBase != acc2.ExtentBase+acc2.ExtentBytes {
		t.Fatalf("extents not stacked: %d/%d %d/%d %d/%d",
			acc1.ExtentBase, acc1.ExtentBytes, acc2.ExtentBase, acc2.ExtentBytes,
			acc3.ExtentBase, acc3.ExtentBytes)
	}
	top := acc3.ExtentBase + acc3.ExtentBytes

	// Close s1 first: it is buried under s2 and s3, so its slack is only
	// recorded — the watermark cannot move yet.
	res1 := finishSession(t, c1, acc1)
	if res1.ExtentBytes >= acc1.ExtentBytes {
		t.Fatalf("finalized set %d B left no slack in extent %d B", res1.ExtentBytes, acc1.ExtentBytes)
	}
	if got := srv.watermark(); got != top {
		t.Fatalf("watermark moved to %d on a buried close, want %d", got, top)
	}

	// Abort s2 (still buried under s3): recorded, watermark still pinned.
	abortSession(t, srv, acc2.Session)
	if got := srv.watermark(); got != top {
		t.Fatalf("watermark moved to %d on a buried abort, want %d", got, top)
	}

	// Abort s3: now the pointer retreats through s3's whole extent, then
	// s2's recorded hole, and stops at s1's finalized tail.
	abortSession(t, srv, acc3.Session)
	want := acc1.ExtentBase + res1.ExtentBytes
	if got := srv.watermark(); got != want {
		t.Fatalf("watermark %d after coalescing walk, want %d", got, want)
	}

	// The next open reuses the reclaimed space behaviorally.
	acc4 := openSession(t, c2, smallOpenReq("s4", ""))
	if acc4.ExtentBase != want {
		t.Fatalf("new extent at %d, want reclaimed watermark %d", acc4.ExtentBase, want)
	}

	// Single-hop variant: a buried full close whose slack is consumed when
	// the topmost extent aborts; the walk stops at the finalized tail.
	acc5 := openSession(t, c3, smallOpenReq("s5", ""))
	res4 := finishSession(t, c2, acc4)
	abortSession(t, srv, acc5.Session)
	if got, want := srv.watermark(), acc4.ExtentBase+res4.ExtentBytes; got != want {
		t.Fatalf("single-hop watermark %d, want %d", got, want)
	}
}

// TestExtentReclaimManyOutOfOrder drives a longer random-ish order of
// hand-driven closes, aborts and whole Client.Dumps and checks what must hold
// once every session is gone: the watermark equals the top of the highest
// finalized set, the finalized sets' extents are disjoint, and the three
// statements of what the tenant holds — its resident ledger, the listing,
// the sets' own sizes — are one number.
func TestExtentReclaimManyOutOfOrder(t *testing.T) {
	srv := NewServer(Config{})
	if err := srv.AddTenant(TenantConfig{Name: "climate"}); err != nil {
		t.Fatal(err)
	}
	const n = 6
	clients := make([]*Client, n)
	accs := make([]OpenAccept, n)
	for i := range clients {
		clients[i] = startPair(t, srv)
		accs[i] = openSession(t, clients[i], smallOpenReq(fmt.Sprintf("m%d", i), ""))
	}
	// Close the even sessions (keeping their sets resident), abort the odd
	// ones, in an interleaved non-stack order, with a dump of a larger set
	// opened above them all part-way through.
	var results []Result
	finish := func(i int) { results = append(results, finishSession(t, clients[i], accs[i])) }
	dump := func(name string) {
		res, err := startPair(t, srv).Dump("climate", genSet(name, 3, len(results)), DumpOptions{Workers: 2})
		if err != nil {
			t.Fatalf("dump %s: %v", name, err)
		}
		results = append(results, res)
	}
	finish(2)
	abortSession(t, srv, accs[1].Session)
	dump("d0")
	finish(0)
	abortSession(t, srv, accs[5].Session)
	finish(4)
	abortSession(t, srv, accs[3].Session)
	dump("d1")

	var top, stored, listed int64
	for i, r := range results {
		top = max(top, r.ExtentBase+r.ExtentBytes)
		stored += r.SetBytes
		for j, o := range results[:i] {
			if r.ExtentBase < o.ExtentBase+o.ExtentBytes && o.ExtentBase < r.ExtentBase+r.ExtentBytes {
				t.Fatalf("extent %d [%d, +%d) overlaps extent %d [%d, +%d)",
					i, r.ExtentBase, r.ExtentBytes, j, o.ExtentBase, o.ExtentBytes)
			}
		}
	}
	if got := srv.watermark(); got != top {
		t.Fatalf("watermark %d with all sessions resolved, want the highest set's top %d", got, top)
	}
	for _, e := range srv.List() {
		listed += e.Bytes
	}
	if u, _ := srv.Usage("climate"); u.ResidentBytes != stored || listed != stored || u.ReservedBytes != 0 {
		t.Fatalf("resident %d B, listed %d B, reserved %d B; the %d sets hold %d B",
			u.ResidentBytes, listed, u.ReservedBytes, len(results), stored)
	}
}

// TestRetiredCodecOpenRefused: an open naming squant, a codec this
// repository no longer registers, is answered with an error frame naming the
// codec, and the tenant's ledger is left at zero.
func TestRetiredCodecOpenRefused(t *testing.T) {
	srv := NewServer(Config{})
	if err := srv.AddTenant(TenantConfig{Name: "climate"}); err != nil {
		t.Fatal(err)
	}
	cl := startPair(t, srv)
	req := smallOpenReq("retired", "")
	req.Codec = "squant"
	if err := writeFrame(cl.rw, frame{Type: frameOpen, Payload: req.encode()}); err != nil {
		t.Fatal(err)
	}
	rf, err := readFrame(cl.rw)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Type != frameErr || !strings.Contains(string(rf.Payload), `"squant"`) {
		t.Fatalf("open naming squant: frame %v %q, want an error naming the codec", rf.Type, rf.Payload)
	}
	if u, _ := srv.Usage("climate"); u != (TenantUsage{Name: "climate"}) {
		t.Fatalf("refused open left %+v in the ledger", u)
	}
}
