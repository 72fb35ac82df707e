package svc

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strings"
	"testing"

	"lcpio/internal/ckpt"
)

// localWrite dumps set on a private medium and returns what ckpt.Write
// reported and the image it left.
func localWrite(t *testing.T, set ckpt.Set) (*ckpt.WriteResult, []byte) {
	t.Helper()
	med := ckpt.NewMemMedium()
	wres, err := ckpt.Write(med, set, ckpt.WriteOptions{Workers: 2})
	if err != nil {
		t.Fatalf("local write: %v", err)
	}
	return wres, med.Bytes()
}

// TestDaemonSetIsLocalWriteImage is the placement rule's identity: a set
// Client.Dump sends — chunks in index order — is on the daemon's medium the
// bytes ckpt.Write leaves on a private one, for both codecs, plain and
// compressed-wire frames, at 1, 2 and 4 client workers; and every ledger that
// states the set's size states that image's.
func TestDaemonSetIsLocalWriteImage(t *testing.T) {
	for _, codec := range []string{"sz", "zfp"} {
		set := genCodecSet("image", codec, 4, 5)
		wres, want := localWrite(t, set)
		for _, wireCodec := range []string{"", codec} {
			for _, workers := range []int{1, 2, 4} {
				what := fmt.Sprintf("%s wire %q workers %d", codec, wireCodec, workers)
				srv := NewServer(Config{})
				if err := srv.AddTenant(TenantConfig{Name: "a"}); err != nil {
					t.Fatal(err)
				}
				res, err := startPair(t, srv).Dump("a", set, DumpOptions{Workers: workers, WireCodec: wireCodec})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if got := setImage(t, srv, set.Name); !bytes.Equal(got, want) {
					t.Fatalf("%s: daemon holds %d B, ckpt.Write wrote %d B, or the bytes differ", what, len(got), len(want))
				}
				u, _ := srv.Usage("a")
				sizes := []int64{res.SetBytes, res.ExtentBytes, srv.List()[0].Bytes, u.ResidentBytes, srv.watermark()}
				for _, n := range sizes {
					if n != wres.FileBytes {
						t.Fatalf("%s: set, extent, listed, resident, watermark = %v, local FileBytes %d", what, sizes, wres.FileBytes)
					}
				}
			}
		}
	}
}

// packAll packs every chunk of set on the lane the client and ckpt.Write use.
func packAll(t *testing.T, set ckpt.Set) [][]byte {
	t.Helper()
	lane := ckpt.PackLane(&set)
	blobs := make([][]byte, set.Ranks*len(set.Fields))
	for idx := range blobs {
		var err error
		if blobs[idx], err = lane(idx); err != nil {
			t.Fatal(err)
		}
	}
	return blobs
}

func setOpenReq(tenant string, set ckpt.Set, ratio float64) OpenRequest {
	req := OpenRequest{
		Tenant: tenant, SetName: set.Name, Meta: set.Meta, Codec: set.Codec,
		Ranks: set.Ranks, RelEB: set.MeanRelEB(), ProjectedRatio: ratio,
	}
	for _, f := range set.Fields {
		req.Fields = append(req.Fields, ckpt.FieldInfo{Name: f.Name, Dims: f.Dims, ErrorBound: f.ErrorBound})
	}
	return req
}

// sendAll writes one put frame per index of order, then a close, without
// waiting for a reply (net.Pipe has no buffer, so from its own goroutine),
// and returns the len(order)+1 replies in order.
func sendAll(t *testing.T, c *Client, sid uint32, blobs [][]byte, order []int) []frame {
	t.Helper()
	go func() {
		for _, idx := range order {
			if writeFrame(c.rw, frame{Type: framePut, Session: sid, Payload: encodePut(idx, blobs[idx])}) != nil {
				return
			}
		}
		writeFrame(c.rw, frame{Type: frameClose, Session: sid})
	}()
	replies := make([]frame, len(order)+1)
	for i := range replies {
		var err error
		if replies[i], err = readFrame(c.rw); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
	}
	return replies
}

// TestReverseOrderPutsFinalize: the protocol takes a session's chunks in any
// order, and placement is arrival order — so a set sent last chunk first
// finalizes, occupies exactly its bytes and restores to what a local dump
// restores to. Byte identity with ckpt.Write is promised for index order
// only: this image holds the same chunks the other way round.
func TestReverseOrderPutsFinalize(t *testing.T) {
	srv := NewServer(Config{})
	if err := srv.AddTenant(TenantConfig{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	set := genSet("reversed", 3, 2)
	blobs := packAll(t, set)
	order := make([]int, len(blobs))
	for i := range order {
		order[i] = len(blobs) - 1 - i
	}
	cl := startPair(t, srv)
	acc := openSession(t, cl, setOpenReq("a", set, 0))
	replies := sendAll(t, cl, acc.Session, blobs, order)
	for i, rf := range replies[:len(order)] {
		if rf.Type != framePutOK {
			t.Fatalf("put %d: frame %v payload %s", order[i], rf.Type, rf.Payload)
		}
	}
	last := replies[len(order)]
	if last.Type != frameCloseOK {
		t.Fatalf("close: frame %v payload %s", last.Type, last.Payload)
	}
	res, err := parseResult(last.Payload)
	if err != nil {
		t.Fatal(err)
	}
	local := restoresLikeLocal(t, srv, set.Name, set)
	got := setImage(t, srv, set.Name)
	if int64(len(local)) != res.SetBytes || res.ExtentBytes != res.SetBytes || len(got) != len(local) {
		t.Fatalf("set %d B, extent %d B, image %d B; the local dump is %d B", res.SetBytes, res.ExtentBytes, len(got), len(local))
	}
	if bytes.Equal(got, local) {
		t.Fatal("chunks sent in reverse landed in index order: placement is not arrival order")
	}
}

// unevenSet is one field over 8 ranks of which one — rank 3 — is noise: its
// chunk is most of the set's payload, so no per-rank share of an extent sized
// from the set's overall ratio holds it.
func unevenSet(name string) ckpt.Set {
	const ranks, elems, noisy = 8, 1 << 16, 3
	rng := rand.New(rand.NewSource(24))
	f := ckpt.Field{Name: "rho", Dims: []int{elems}, ErrorBound: 1e-3, Data: make([][]float32, ranks)}
	for r := range f.Data {
		f.Data[r] = make([]float32, elems)
		for i := range f.Data[r] {
			if r == noisy {
				f.Data[r][i] = rng.Float32()
			} else {
				f.Data[r][i] = float32(math.Sin(float64(i)/512 + float64(r)))
			}
		}
	}
	return ckpt.Set{Name: name, Meta: "uneven", Codec: "sz", Ranks: ranks, Fields: []ckpt.Field{f}}
}

// TestRatioShortfall drives the one refusal placement has. A set whose ranks
// compress unevenly, opened at exactly the ratio it measures, lands — the
// extent is the set's, not eight lanes of an eighth each. Opened at four times
// that ratio, the first chunk that would leave no room for the manifest and
// footer is refused as a shortfall, every put behind it and the close are
// answered with the session's failure, and once the connection drops nothing
// of the session is left in any ledger.
func TestRatioShortfall(t *testing.T) {
	srv := NewServer(Config{})
	if err := srv.AddTenant(TenantConfig{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	set := unevenSet("uneven")
	wres, want := localWrite(t, set)
	ratio := wres.Ratio()

	res, err := startPair(t, srv).Dump("a", set, DumpOptions{Workers: 2, ProjectedRatio: ratio})
	if err != nil {
		t.Fatalf("opened at its measured ratio %.2f: %v", ratio, err)
	}
	if got := setImage(t, srv, set.Name); !bytes.Equal(got, want) || res.ExtentBytes != wres.FileBytes {
		t.Fatalf("landed %d B in a %d B extent, local image %d B, or the bytes differ", len(got), res.ExtentBytes, len(want))
	}

	srv = NewServer(Config{})
	if err := srv.AddTenant(TenantConfig{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	blobs := packAll(t, set)
	cEnd, sEnd := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- srv.ServeConn(sEnd) }()
	cl := NewClient(cEnd)
	req := setOpenReq("a", set, 4*ratio)
	acc := openSession(t, cl, req)
	// The first chunk that does not fit, from the sizes alone.
	tail := wres.FileBytes - ckpt.HeaderLen - wres.PayloadBytes
	off, first := int64(ckpt.HeaderLen), -1
	for idx, b := range blobs {
		if off+int64(len(b))+tail > acc.ExtentBytes {
			first = idx
			break
		}
		off += int64(len(b))
	}
	if first < 1 || first > len(blobs)-2 {
		t.Fatalf("chunk %d of %d is the first not to fit %d B: the case needs chunks on both sides of it", first, len(blobs), acc.ExtentBytes)
	}
	order := make([]int, len(blobs))
	for i := range order {
		order[i] = i
	}
	for i, rf := range sendAll(t, cl, acc.Session, blobs, order) {
		switch msg := string(rf.Payload); {
		case i < first && rf.Type != framePutOK:
			t.Fatalf("put %d fits and got %v %q", i, rf.Type, msg)
		case i == first && !(rf.Type == frameErr && strings.Contains(msg, "ratio shortfall")):
			t.Fatalf("put %d does not fit and got %v %q, want the shortfall refusal", i, rf.Type, msg)
		case i > first && !(rf.Type == frameErr && strings.Contains(msg, "session failed")):
			t.Fatalf("frame %d behind the refusal got %v %q, want the session's failure", i, rf.Type, msg)
		}
	}
	if u, _ := srv.Usage("a"); u.ActiveSessions != 1 || u.ReservedBytes != acc.ExtentBytes {
		t.Fatalf("a failed session holds its reservation until the connection drops: %+v", u)
	}
	cEnd.Close()
	<-served
	sEnd.Close()
	if u, _ := srv.Usage("a"); u != (TenantUsage{Name: "a"}) || srv.watermark() != 0 || len(srv.List()) != 0 {
		t.Fatalf("after the drop: usage %+v, watermark %d, sets %+v", u, srv.watermark(), srv.List())
	}
}
