package svc

import (
	"bytes"
	"slices"
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

	frames := []frame{
		{Type: frameOpen, Payload: req.encode()},
		{Type: frameOpenOK, Session: 1, Payload: acc.encode()},
		{Type: frameReject, Payload: rej.encode()},
		{Type: framePut, Session: 1, Payload: encodePut(3, []byte{9, 8, 7, 6})},
		{Type: framePutOK, Session: 1, Payload: pr.encode()},
		{Type: frameClose, Session: 1},
		{Type: frameCloseOK, Session: 1, Payload: res.encode()},
		{Type: frameList},
		{Type: frameListOK, Payload: encodeSetEntries([]SetEntry{{Name: "s0", Tenant: "t0", Bytes: 128}})},
		{Type: frameRestoreReq, Payload: encodeSetName("s0")},
		{Type: frameRestoreOK, Session: 1, Payload: rr.encode()},
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
// capped before any size arithmetic); a type byte that names no frame is
// refused; and parsing continues frame by frame through interleaved streams
// like a real connection would.
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
	// The retired frames, as an older client sent them, refused from the
	// header alone: the compressed-wire put (type 13: index, raw length,
	// digest, blob) and the advise pair (14 and 15) carrying an advise
	// request.
	putZ := append(wire.AppendUint64(wire.AppendUint32(nil, 3), 64), encodePut(3, []byte{9, 8, 7, 6})[4:]...)
	f.Add(appendFrame(nil, frame{Type: 13, Session: 1, Payload: putZ}))
	advise := wire.AppendFloat64(wire.AppendFloat64(wire.AppendUint64(wire.AppendString(nil, "t0"), 1<<20), 0.5), 60)
	for _, t := range []frameType{14, 15} {
		f.Add(appendFrame(nil, frame{Type: t, Payload: advise}))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for depth := 0; len(rest) >= frameHdrLen && depth < 64; depth++ {
			fr, n, err := ParseFrame(rest)
			// The type byte follows the 4-byte magic.
			if ft := frameType(rest[4]); err == nil && (ft == frameInvalid || ft >= frameTypeEnd) {
				t.Fatalf("parsed a frame of unknown type %d", ft)
			}
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
			case framePut:
				if h, blob, err := parsePut(fr.Payload); err == nil {
					if re := putPayload(h, blob); !bytes.Equal(re, fr.Payload) {
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
			}
			rest = rest[n:]
		}
	})
}

// FuzzTransitFrame drives a compressed-wire session's put path: the put
// parser, then the check Server.verify runs on the chunk against the
// session's field, here [8 12]. Contract: parsePut either fails cleanly or
// returns a non-empty blob that re-encodes to exactly the input; the check
// never panics; and a blob it passes is one a restore reads back at the
// field's shape. The digest is the sender's word, and a sender can put a
// matching one over any bytes, so the check is driven whether or not it
// matches: it must stand hostile blobs on its own.
func FuzzTransitFrame(f *testing.F) {
	dims := []int{8, 12}
	data := make([]float32, 96)
	for i := range data {
		data[i] = float32(i) * 0.5
	}
	pack := func(codec string, dims ...int) []byte {
		elems := 1
		for _, d := range dims {
			elems *= d
		}
		blob, err := container.Pack(codec, data[:elems], dims, 1e-3, container.Options{Parallelism: 1})
		if err != nil {
			f.Fatal(err)
		}
		return blob
	}
	valid := encodePut(2, pack("sz", dims...))
	f.Add(valid)
	// Truncations through the header boundary and mid-blob.
	for _, cut := range []int{0, 1, putHdrLen - 1, putHdrLen, putHdrLen + 1, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	// Bit flips across index, digest and blob body.
	for _, pos := range []int{0, 3, 4, 7, putHdrLen, putHdrLen + 8, len(valid) - 2} {
		mut := append([]byte(nil), valid...)
		mut[pos] ^= 0x40
		f.Add(mut)
	}
	// Shape lies under a matching digest: the field's elements in other
	// shapes, one element short or over, and the other codec's blob.
	for _, blob := range [][]byte{pack("sz", 96), pack("sz", 12, 8), pack("sz", 4, 24),
		pack("sz", 95), pack("zfp", dims...), pack("zfp", 96)} {
		f.Add(encodePut(2, blob))
	}

	u := container.NewUnpacker(container.Options{Parallelism: 1})
	f.Fuzz(func(t *testing.T, payload []byte) {
		h, pb, err := parsePut(payload)
		if err != nil {
			return
		}
		if len(pb) == 0 {
			t.Fatal("accepted a put with an empty blob")
		}
		if re := putPayload(h, pb); !bytes.Equal(re, payload) {
			t.Fatalf("re-encode mismatch: %x vs %x", re, payload)
		}
		_ = ckpt.Digest(pb) == h.CRC
		if u.Check(pb, dims) != nil {
			return
		}
		if _, got, err := u.Unpack(pb); err != nil || !slices.Equal(got, dims) {
			t.Fatalf("the check passed a chunk that unpacks to %v, %v", got, err)
		}
	})
}
