package svc

import (
	"bytes"
	"testing"

	"lcpio/internal/ckpt"
	"lcpio/internal/container"
	"lcpio/internal/wire"
)

// fuzzFrames builds one frame of every type with a realistic payload, for
// corpus seeding.
func fuzzFrames() [][]byte {
	req := OpenRequest{
		Tenant: "t0", SetName: "s0", Meta: "m", Codec: "sz", Ranks: 2,
		Fields: []ckpt.FieldInfo{
			{Name: "p", Dims: []int{4, 8}, ErrorBound: 1e-3},
			{Name: "v", Dims: []int{16}, ErrorBound: 1e-4},
		},
		RelEB: 1e-3, ProjectedRatio: 8, DeadlineSeconds: 0.5,
	}
	acc := OpenAccept{Session: 1, ExtentBase: 8, ExtentBytes: 4096,
		ProjectedJoules: 2.5, AdmissionWaitSeconds: 0.01}
	rej := Reject{Code: RejectQuota, Detail: "no room", ProjectedJoules: 2.5, BudgetJoules: 1}
	pr := PutReply{Idx: 3, QueueWaitSeconds: 0.125, Backpressure: true}
	res := Result{SetBytes: 128, PayloadBytes: 96, RawBytes: 512, Chunks: 4,
		CompressJoules: 1, TransitJoules: 2, Joules: 3, SimSeconds: 0.5, GoodputBps: 1536,
		WireCodec: "sz", WireSavedSeconds: 0.01, WireVerifiedChunks: 4}
	rr := RestoreReply{Chunks: 4, RawBytes: 512, SimReadSeconds: 0.1, ReadJoules: 0.7, DecompressRatio: 5.3}
	areq := AdviseRequest{Tenant: "t0", RawBytes: 1 << 20, DeadlineSeconds: 0.5, MinPSNR: 60}
	arep := AdviseReply{Codec: "zfp", RelEB: 1e-3, Ratio: 8.5, ProjJoules: 2.5,
		ProjSeconds: 0.25, Admissible: true}

	frames := []frame{
		{Type: frameOpen, Payload: req.encode()},
		{Type: frameOpenOK, Session: 1, Payload: acc.encode()},
		{Type: frameReject, Payload: rej.encode()},
		{Type: framePut, Session: 1, Payload: encodePut(3, []byte{9, 8, 7, 6})},
		{Type: framePutZ, Session: 1, Payload: encodePutZ(3, 64, []byte{9, 8, 7, 6})},
		{Type: framePutOK, Session: 1, Payload: pr.encode()},
		{Type: frameClose, Session: 1},
		{Type: frameCloseOK, Session: 1, Payload: res.encode()},
		{Type: frameList},
		{Type: frameListOK, Payload: encodeSetEntries([]SetEntry{{Name: "s0", Tenant: "t0", Bytes: 128}})},
		{Type: frameRestoreReq, Payload: encodeSetName("s0")},
		{Type: frameRestoreOK, Session: 1, Payload: rr.encode()},
		{Type: frameAdvise, Payload: areq.encode()},
		{Type: frameAdviseOK, Payload: arep.encode()},
		{Type: frameErr, Payload: []byte("boom")},
	}
	out := make([][]byte, len(frames))
	for i, fr := range frames {
		out[i] = appendFrame(nil, fr)
	}
	return out
}

// FuzzSvcFrame drives the session wire framing with arbitrary byte
// streams. Contract: ParseFrame either fails cleanly or yields a frame
// that re-encodes to exactly the consumed bytes; payload parsers for the
// recognized type never panic or over-allocate (quota/geometry fields are
// capped before any size arithmetic); and parsing continues frame by
// frame through interleaved streams like a real connection would.
func FuzzSvcFrame(f *testing.F) {
	seeds := fuzzFrames()
	for _, s := range seeds {
		f.Add(s)
	}
	// Interleaved stream of every frame type back to back.
	var all []byte
	for _, s := range seeds {
		all = append(all, s...)
	}
	f.Add(all)
	// Truncations and field corruptions: header magic, type byte, length
	// field, and quota-overflow geometry in an open request.
	open := seeds[0]
	for _, cut := range []int{1, frameHdrLen - 1, frameHdrLen, frameHdrLen + 3, len(open) - 1} {
		if cut < len(open) {
			f.Add(open[:cut])
		}
	}
	for _, pos := range []int{0, 4, 5, 9, frameHdrLen + 2} {
		mut := append([]byte(nil), open...)
		mut[pos] ^= 0x40
		f.Add(mut)
	}
	// A vanishing projected ratio: parses field by field, overflows the
	// float→bytes conversion of admission pricing if admitted.
	hostile := OpenRequest{
		Tenant: "t0", SetName: "s0", Codec: "sz", Ranks: 2,
		Fields: []ckpt.FieldInfo{{Name: "p", Dims: []int{4, 8}, ErrorBound: 1e-3}},
		RelEB:  1e-3, ProjectedRatio: 1e-300,
	}
	f.Add(appendFrame(nil, frame{Type: frameOpen, Payload: hostile.encode()}))
	// A declared payload length far beyond the actual bytes.
	huge := append([]byte(nil), open[:frameHdrLen]...)
	huge = wire.AppendUint32(huge[:frameHdrLen-4], 1<<31-1)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for depth := 0; len(rest) >= frameHdrLen && depth < 64; depth++ {
			fr, n, err := ParseFrame(rest)
			if err != nil {
				break
			}
			if n <= 0 || n > len(rest) {
				t.Fatalf("consumed %d of %d", n, len(rest))
			}
			if re := appendFrame(nil, fr); !bytes.Equal(re, rest[:n]) {
				t.Fatalf("re-encode mismatch: %x vs %x", re, rest[:n])
			}
			switch fr.Type {
			case frameOpen:
				if req, err := parseOpenRequest(fr.Payload); err == nil {
					// Anything that parses must be admissible arithmetic:
					// geometry caps keep RawBytes positive and bounded.
					if raw := req.RawBytes(); raw <= 0 || raw > maxRawB*4 {
						t.Fatalf("parsed open request with absurd raw size %d", raw)
					}
					if _, ok := projectedBytes(req.RawBytes(), req.ProjectedRatio); req.ProjectedRatio > 0 && !ok {
						t.Fatalf("parsed open request whose ratio %g overflows pricing", req.ProjectedRatio)
					}
					if !bytes.Equal(req.encode(), fr.Payload) {
						t.Fatal("open request re-encode mismatch")
					}
				}
			case frameOpenOK:
				_, _ = parseOpenAccept(fr.Payload)
			case frameReject:
				_, _ = parseReject(fr.Payload)
			case framePut, framePutZ:
				if h, blob, err := parsePut(fr.Type, fr.Payload); err == nil {
					if re := putPayload(fr.Type, h, blob); !bytes.Equal(re, fr.Payload) {
						t.Fatal("put re-encode mismatch")
					}
				}
			case framePutOK:
				_, _ = parsePutReply(fr.Payload)
			case frameCloseOK:
				_, _ = parseResult(fr.Payload)
			case frameListOK:
				_, _ = parseSetEntries(fr.Payload)
			case frameRestoreReq:
				_, _ = parseSetName(fr.Payload)
			case frameRestoreOK:
				_, _ = parseRestoreReply(fr.Payload)
			case frameAdvise:
				if req, err := parseAdviseRequest(fr.Payload); err == nil {
					if req.RawBytes <= 0 || req.RawBytes > maxRawB {
						t.Fatalf("parsed advise request with absurd raw size %d", req.RawBytes)
					}
					if !bytes.Equal(req.encode(), fr.Payload) {
						t.Fatal("advise request re-encode mismatch")
					}
				}
			case frameAdviseOK:
				if rep, err := parseAdviseReply(fr.Payload); err == nil {
					if !bytes.Equal(rep.encode(), fr.Payload) {
						t.Fatal("advise reply re-encode mismatch")
					}
				}
			}
			rest = rest[n:]
		}
	})
}

// FuzzTransitFrame drives the compressed-wire chunk decoder (framePutZ
// payloads) plus the daemon's verification path. Contract: parsePut either
// fails cleanly or returns a capped, 4-aligned raw length and a non-empty
// blob that re-encode to exactly the input; verifying the blob the way
// Server.verify does never panics and never allocates from the hostile
// declared length. The digest is the sender's word, and a sender can put a
// matching one over any bytes, so the inflate is driven whether or not it
// matches: it must stand hostile blobs on its own.
func FuzzTransitFrame(f *testing.F) {
	data := make([]float32, 96)
	for i := range data {
		data[i] = float32(i) * 0.5
	}
	blob, err := container.Pack("sz", data, []int{96}, 1e-3, container.Options{Parallelism: 1})
	if err != nil {
		f.Fatal(err)
	}
	valid := encodePutZ(2, int64(len(data))*4, blob)
	f.Add(valid)
	// Truncations through the header boundary and mid-blob.
	for _, cut := range []int{0, 1, putHdrLen, putZHdrLen - 1, putZHdrLen, putZHdrLen + 1, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	// Bit flips across index, length field, and blob body.
	for _, pos := range []int{0, 3, 4, 11, putZHdrLen, putZHdrLen + 8, len(valid) - 2} {
		mut := append([]byte(nil), valid...)
		mut[pos] ^= 0x40
		f.Add(mut)
	}
	// Length-field lies: zero, unaligned, negative (as uint64), beyond the
	// allocation cap, and well-formed-but-wrong.
	lie := func(rawLen uint64) []byte {
		return encodePutZ(2, int64(rawLen), blob)
	}
	f.Add(lie(0))
	f.Add(lie(7))
	f.Add(lie(1 << 63))
	f.Add(lie(uint64(maxRawB) + 4))
	f.Add(lie(uint64(len(data))*4 + 4))
	// A flip inside the digest field itself.
	mut := append([]byte(nil), valid...)
	mut[putZHdrLen-2] ^= 0x40
	f.Add(mut)

	f.Fuzz(func(t *testing.T, payload []byte) {
		h, pb, err := parsePut(framePutZ, payload)
		if err != nil {
			return
		}
		if h.RawLen <= 0 || h.RawLen > maxRawB || h.RawLen%4 != 0 || len(pb) == 0 {
			t.Fatalf("accepted out-of-contract chunk: rawLen %d blob %d B", h.RawLen, len(pb))
		}
		if re := putPayload(framePutZ, h, pb); !bytes.Equal(re, payload) {
			t.Fatalf("re-encode mismatch: %x vs %x", re, payload)
		}
		_ = ckpt.Digest(pb) == h.CRC
		// Inflate exactly as Server.verify does. A declared length that the
		// container's own header does not state is refused before anything
		// is decoded; the slab is bounded by the blob's plausibility guard.
		_ = container.NewUnpacker(container.Options{Parallelism: 1}).Check(pb, int(h.RawLen/4))
	})
}
