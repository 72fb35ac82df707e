package svc

import (
	"fmt"
	"strings"
	"testing"

	"lcpio/internal/ckpt"
	"lcpio/internal/container"
	"lcpio/internal/obs"
)

// TestWireCodecDumpRestoresByteIdentical is the compressed-wire acceptance
// check: in a dump negotiated with --wire-codec the daemon checks every
// chunk at the wire, and the restored set is byte-identical to a plain dump
// of the same data.
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

// TestNFSWriteBytesAreSetBytes: the NFS write counter counts the bytes a
// dump moves — its set, header to footer — and no byte admission priced or
// the wire credit imagined, in a plain and in a compressed-wire session.
func TestNFSWriteBytesAreSetBytes(t *testing.T) {
	reg := obs.NewRegistry()
	prev := obs.Use(reg)
	defer obs.Use(prev)
	srv := NewServer(Config{})
	if err := srv.AddTenant(TenantConfig{Name: "climate"}); err != nil {
		t.Fatal(err)
	}
	for _, wireCodec := range []string{"", "sz"} {
		before, _ := reg.CounterValue("lcpio_nfs_write_bytes_total")
		res, err := startPair(t, srv).Dump("climate", genSet("nfs"+wireCodec, 3, 5), DumpOptions{Workers: 2, WireCodec: wireCodec})
		if err != nil {
			t.Fatal(err)
		}
		if after, _ := reg.CounterValue("lcpio_nfs_write_bytes_total"); after-before != float64(res.SetBytes) {
			t.Errorf("wire %q: lcpio_nfs_write_bytes_total rose %v B for a %d B set", wireCodec, after-before, res.SetBytes)
		}
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

// TestPutZLengthLieRejected sends a compressed-wire session a container that
// holds half its field's elements, then corrupt blobs under a digest that
// matches them, as a sender with a broken packer would. The first refusal
// breaks a session, so each case opens its own and is held to the reason it
// names.
func TestPutZLengthLieRejected(t *testing.T) {
	srv := NewServer(Config{})
	if err := srv.AddTenant(TenantConfig{Name: "climate"}); err != nil {
		t.Fatal(err)
	}
	cases := 0
	rejected := func(elems int, blob []byte, what, reason string) {
		t.Helper()
		cases++
		cl := startPair(t, srv)
		acc := openSession(t, cl, rampOpenReq(fmt.Sprintf("lie-%d", cases), "sz", elems))
		if err := writeFrame(cl.rw, frame{Type: framePut, Session: acc.Session,
			Payload: encodePut(0, blob)}); err != nil {
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
	// The container header disagrees with the session's field: refused from
	// the header, before anything is decoded.
	rejected(2*smallElems, blob, "container of half the field's elements", "elements")
	// A blob that no longer decodes must fail inflate verification rather
	// than land on the medium. The verification reads the whole stream: it
	// catches what breaks the stream's structure, and the digest beside it
	// catches what does not.
	rejected(smallElems, blob[:len(blob)-1], "blob cut one byte short", "inflate verification")

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
	rejected(bigElems, bad, "bit-flipped blob", "inflate verification")
}

// TestPutZShapeLieRejected sends a compressed-wire session's field of dims
// [8 8] a chunk that holds its 64 elements as a 1-D [64] array, under a
// digest that matches. Accepted, it would finalize a set that no restore can
// read ("chunk shape [64] disagrees with manifest [8 8]"); the verification
// holds the chunk to the field's shape and refuses it.
func TestPutZShapeLieRejected(t *testing.T) {
	srv := NewServer(Config{})
	if err := srv.AddTenant(TenantConfig{Name: "climate"}); err != nil {
		t.Fatal(err)
	}
	if rf := putSquare(t, srv, "shape-lie", smallBlob(t)); rf.Type != frameErr || !strings.Contains(string(rf.Payload), "want [8 8]") {
		t.Fatalf("a [64] chunk for an [8 8] field got %v %q, want a refusal naming the shape", rf.Type, rf.Payload)
	}
}

// TestPlainPutInWireSessionChecked: whether a chunk is checked is the
// session's fact. A compressed-wire session counts its one put, the frame
// every session sends, as checked, and the set restores; the same put of a
// [64] container for the [8 8] field — the frame a plain-session client
// sends — is refused, not acked into a set whose every restore fails.
func TestPlainPutInWireSessionChecked(t *testing.T) {
	srv := NewServer(Config{})
	if err := srv.AddTenant(TenantConfig{Name: "climate"}); err != nil {
		t.Fatal(err)
	}
	if rf := putSquare(t, srv, "flat", smallBlob(t)); rf.Type != frameErr || !strings.Contains(string(rf.Payload), "want [8 8]") {
		t.Fatalf("a [64] put in an sz wire session got %v %q, want a refusal naming the shape", rf.Type, rf.Payload)
	}

	cl := startPair(t, srv)
	res := finishSessionWith(t, cl, openSession(t, cl, squareOpenReq("square")), rampBlob(t, 8, 8))
	if res.WireVerifiedChunks != 1 {
		t.Fatalf("wire session checked %d of its 1 chunk", res.WireVerifiedChunks)
	}
	view, err := srv.OpenSet("square")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.Restore(view, ckpt.RestoreOptions{}); err != nil {
		t.Fatalf("restore of the checked set: %v", err)
	}
}

// squareOpenReq opens an sz compressed-wire session of one [8 8] field;
// putSquare sends blob as its chunk and returns the reply.
func squareOpenReq(name string) OpenRequest {
	req := smallOpenReq(name, "sz")
	req.Fields[0].Dims = []int{8, 8}
	return req
}

func putSquare(t *testing.T, srv *Server, name string, blob []byte) frame {
	t.Helper()
	cl := startPair(t, srv)
	acc := openSession(t, cl, squareOpenReq(name))
	if err := writeFrame(cl.rw, frame{Type: framePut, Session: acc.Session, Payload: encodePut(0, blob)}); err != nil {
		t.Fatal(err)
	}
	rf, err := readFrame(cl.rw)
	if err != nil {
		t.Fatal(err)
	}
	return rf
}

// encodePut builds a put payload the way the client does — the frame
// appendPutFrame writes, less its frame header — with the digest taken over
// the blob as given.
func encodePut(idx int, blob []byte) []byte {
	return putPayload(putHeader{Idx: idx, CRC: ckpt.Digest(blob)}, blob)
}

func putPayload(h putHeader, blob []byte) []byte {
	b, err := appendPutFrame(nil, 0, h, blob)
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

func smallOpenReq(name, wireCodec string) OpenRequest {
	return rampOpenReq(name, wireCodec, smallElems)
}

func smallBlob(t *testing.T) []byte { return rampBlob(t, smallElems) }

// rampOpenReq opens a one-rank, one-field sz set of elems float32s;
// rampBlob packs the linear ramp that fills a field of the given shape.
func rampOpenReq(name, wireCodec string, elems int) OpenRequest {
	return OpenRequest{
		Tenant: "climate", SetName: name, Codec: "sz", Ranks: 1,
		Fields:    []ckpt.FieldInfo{{Name: "p", Dims: []int{elems}, ErrorBound: 1e-3}},
		RelEB:     1e-3,
		WireCodec: wireCodec,
	}
}

func rampBlob(t *testing.T, dims ...int) []byte {
	t.Helper()
	elems := 1
	for _, d := range dims {
		elems *= d
	}
	data := make([]float32, elems)
	for i := range data {
		data[i] = float32(i) * 0.25
	}
	blob, err := container.Pack("sz", data, dims, 1e-3, container.Options{Parallelism: 1})
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
	return finishSessionWith(t, c, acc, smallBlob(t))
}

// finishSessionWith streams blob as a one-chunk session's chunk and closes
// it.
func finishSessionWith(t *testing.T, c *Client, acc OpenAccept, blob []byte) Result {
	t.Helper()
	if err := writeFrame(c.rw, frame{Type: framePut, Session: acc.Session,
		Payload: encodePut(0, blob)}); err != nil {
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
