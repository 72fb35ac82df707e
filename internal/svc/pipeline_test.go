package svc

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lcpio/internal/ckpt"
	"lcpio/internal/container"
	"lcpio/internal/obs"
)

// settled fails the test unless the process is back to base goroutines: the
// connection's committer, the client's ack reader and every verification
// have ended. Verifications signal their verdict a moment before they
// return, so the count is polled briefly.
func settled(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, %d before the case:\n%s",
				what, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// handDump drives one dump the way a peer that never pipelines does: one
// frame written, its reply read, then the next. The chunks are the client's
// — the same packer settings, the same rank-major order — so the stored set
// and the accounting are the reference Client.Dump is held to.
func handDump(t *testing.T, c *Client, tenant string, set ckpt.Set, wireCodec string) Result {
	t.Helper()
	req := setOpenReq(tenant, set, 0)
	req.WireCodec = wireCodec
	acc := openSession(t, c, req)
	nf := len(set.Fields)
	for idx, blob := range packAll(t, set) {
		out := frame{Type: framePut, Session: acc.Session, Payload: encodePut(idx, blob)}
		if wireCodec != "" {
			out = frame{Type: framePutZ, Session: acc.Session,
				Payload: encodePutZ(idx, int64(req.Fields[idx%nf].Elems())*4, blob)}
		}
		if err := writeFrame(c.rw, out); err != nil {
			t.Fatal(err)
		}
		rf, err := readFrame(c.rw)
		if err != nil {
			t.Fatal(err)
		}
		if rf.Type != framePutOK {
			t.Fatalf("put %d: frame %v payload %s", idx, rf.Type, rf.Payload)
		}
	}
	if err := writeFrame(c.rw, frame{Type: frameClose, Session: acc.Session}); err != nil {
		t.Fatal(err)
	}
	rf, err := readFrame(c.rw)
	if err != nil {
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

// setImage reads a finalized set's bytes off the daemon's medium.
func setImage(t *testing.T, srv *Server, name string) []byte {
	t.Helper()
	view, err := srv.OpenSet(name)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, view.Size())
	if _, err := view.ReadAt(img, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return img
}

// TestPipelinedDumpMatchesOneAtATime is the identity the pipeline rests on:
// for both codecs, plain and compressed-wire frames, at 1, 2 and 4 client
// workers, a pipelined Client.Dump stores the bytes and reports the Result
// — offsets, simulated clock, queue wait, joules — of a hand-driven dump
// that keeps one frame in flight. Commit order is arrival order, so nothing
// the verifiers' interleaving does can show; 20 repeats per configuration
// give it the chance to.
func TestPipelinedDumpMatchesOneAtATime(t *testing.T) {
	const repeats = 20
	for _, codec := range []string{"sz", "zfp"} {
		for _, wireCodec := range []string{"", codec} {
			name := fmt.Sprintf("%s-wire%q", codec, wireCodec)
			set := genCodecSet("identity", codec, 4, 3)
			ref := NewServer(Config{})
			if err := ref.AddTenant(TenantConfig{Name: "a"}); err != nil {
				t.Fatal(err)
			}
			want := handDump(t, startPair(t, ref), "a", set, wireCodec)
			wantImg := setImage(t, ref, set.Name)
			// Time spent queued for admission is wall-clock, the one field
			// that is not a function of the frames.
			want.AdmissionWaitSeconds = 0
			for _, workers := range []int{1, 2, 4} {
				for rep := 0; rep < repeats; rep++ {
					srv := NewServer(Config{})
					if err := srv.AddTenant(TenantConfig{Name: "a"}); err != nil {
						t.Fatal(err)
					}
					got, err := startPair(t, srv).Dump("a", set, DumpOptions{Workers: workers, WireCodec: wireCodec})
					if err != nil {
						t.Fatalf("%s workers=%d rep %d: %v", name, workers, rep, err)
					}
					got.AdmissionWaitSeconds = 0
					if got != want {
						t.Fatalf("%s workers=%d rep %d: result\n%+v\nwant\n%+v", name, workers, rep, got, want)
					}
					if !bytes.Equal(setImage(t, srv, set.Name), wantImg) {
						t.Fatalf("%s workers=%d rep %d: stored set differs from the one-at-a-time dump's", name, workers, rep)
					}
				}
			}
		}
	}
}

// faultConn is a client's connection with one fault in it: put frame number
// at (counting from 0) either leaves with the last byte of its blob flipped,
// or does not leave at all — the connection is closed in its place.
type faultConn struct {
	net.Conn
	at   int
	cut  bool
	puts int
}

func (c *faultConn) Write(p []byte) (int, error) {
	if t := frameType(p[4]); t == framePut || t == framePutZ {
		k := c.puts
		c.puts++
		if k == c.at && c.cut {
			c.Conn.Close()
			return 0, io.ErrClosedPipe
		}
		if k == c.at {
			p = append([]byte(nil), p...)
			p[len(p)-1] ^= 0x01
		}
	}
	return c.Conn.Write(p)
}

// chunkWrites counts the medium writes that landed a chunk: everything past
// the set header.
type chunkWrites struct {
	ckpt.Medium
	n atomic.Int64
}

func (m *chunkWrites) WriteAt(p []byte, off int64) (int, error) {
	if off >= ckpt.HeaderLen {
		m.n.Add(1)
	}
	return m.Medium.WriteAt(p, off)
}

// TestPutWindowFailure pins what a window does when it goes wrong, at every
// position of an 8-chunk dump (more chunks than the window holds): a chunk
// that arrives damaged, and a connection cut with frames unanswered. The
// first bad chunk breaks the session and nothing behind it lands; either
// way no set is published, all three ledgers come back to zero, the extent
// goes to the next session, Dump returns the first failure only after its
// reader has, and no goroutine outlives the connection.
func TestPutWindowFailure(t *testing.T) {
	set := genSet("windowed", 4, 2)
	n := set.Ranks * len(set.Fields)
	if n <= putWindow+1 {
		t.Fatalf("%d chunks do not fill a window of %d", n, putWindow)
	}
	for _, wireCodec := range []string{"", "sz"} {
		for _, cut := range []bool{false, true} {
			for k := 0; k < n; k++ {
				what := fmt.Sprintf("wire %q cut %v at chunk %d", wireCodec, cut, k)
				base := runtime.NumGoroutine()
				med := &chunkWrites{Medium: ckpt.NewMemMedium()}
				srv := NewServer(Config{Medium: med})
				if err := srv.AddTenant(TenantConfig{Name: "a"}); err != nil {
					t.Fatal(err)
				}
				cEnd, sEnd := net.Pipe()
				served := make(chan error, 1)
				go func() { served <- srv.ServeConn(sEnd) }()
				_, err := NewClient(&faultConn{Conn: cEnd, at: k, cut: cut}).
					Dump("a", set, DumpOptions{Workers: 2, WireCodec: wireCodec})
				cEnd.Close()
				<-served
				sEnd.Close()

				if err == nil {
					t.Fatalf("%s: dump succeeded", what)
				}
				if want := fmt.Sprintf("put %d failed", k); !cut &&
					!(strings.Contains(err.Error(), want) && strings.Contains(err.Error(), "digest")) {
					t.Fatalf("%s: dump reported %q, want the first refusal (%q, by digest)", what, err, want)
				}
				// Chunks before k were whole and in order. With the chunk
				// refused every one of them landed and nothing after; with
				// the connection cut, those whose reply could still be
				// written.
				if got := med.n.Load(); got > int64(k) || (!cut && got != int64(k)) {
					t.Fatalf("%s: %d chunks landed", what, got)
				}
				if sets := srv.List(); len(sets) != 0 {
					t.Fatalf("%s: published %+v", what, sets)
				}
				if u, _ := srv.Usage("a"); u != (TenantUsage{Name: "a"}) {
					t.Fatalf("%s: ledger not settled: %+v", what, u)
				}
				settled(t, base, what)

				res, err := startPair(t, srv).Dump("a", set, DumpOptions{Workers: 2, WireCodec: wireCodec})
				if err != nil {
					t.Fatalf("%s: next dump: %v", what, err)
				}
				if res.ExtentBase != 0 {
					t.Fatalf("%s: next session's extent at %d, want the refunded 0", what, res.ExtentBase)
				}
				restoreEqual(t, srv, set.Name, set)
			}
		}
	}
}

// TestPutDigestRefusesEveryFlip closes the gap inflate verification leaves
// (DESIGN 5i, blind spot 2): a byte changed between the client's packer and
// the daemon is refused by the sender's digest wherever it falls — in an sz
// blob whose partition is stored, in a zfp blob, in a plain put that nothing
// ever inflated — including the flips the blob would still have decoded
// under.
func TestPutDigestRefusesEveryFlip(t *testing.T) {
	data := make([]float32, smallElems)
	for i := range data {
		data[i] = float32(i) * 0.25
	}
	for _, tc := range []struct {
		codec string
		z     bool
	}{{"sz", true}, {"sz", false}, {"zfp", true}} {
		blob, err := container.Pack(tc.codec, data, []int{smallElems}, 1e-3, container.Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(Config{})
		if err := srv.AddTenant(TenantConfig{Name: "climate"}); err != nil {
			t.Fatal(err)
		}
		hdr := putHeader{CRC: ckpt.Digest(blob)}
		wireCodec := ""
		if tc.z {
			hdr.RawLen, wireCodec = smallRawLen, tc.codec
		}
		check := container.NewUnpacker(container.Options{Parallelism: 1})
		decodable := 0
		ft := framePut
		if tc.z {
			ft = framePutZ
		}
		for pos := range blob {
			bad := append([]byte(nil), blob...)
			bad[pos] ^= 0xff
			if check.Check(bad, smallElems) == nil {
				decodable++
			}
			// The refusal breaks the session, so every flip gets its own.
			cl := startPair(t, srv)
			req := rampOpenReq(fmt.Sprintf("flip-%d", pos), wireCodec, smallElems)
			req.Codec = tc.codec
			acc := openSession(t, cl, req)
			if err := writeFrame(cl.rw, frame{Type: ft, Session: acc.Session,
				Payload: putPayload(ft, hdr, bad)}); err != nil {
				t.Fatal(err)
			}
			rf, err := readFrame(cl.rw)
			if err != nil {
				t.Fatal(err)
			}
			if rf.Type != frameErr || !strings.Contains(string(rf.Payload), "digest") {
				t.Fatalf("%s z=%v: byte %d flipped got %v %q, want a digest refusal",
					tc.codec, tc.z, pos, rf.Type, rf.Payload)
			}
		}
		if decodable == 0 {
			t.Fatalf("%s: no flip of the %d-byte blob still decodes; the case no longer shows what the digest adds",
				tc.codec, len(blob))
		}
		t.Logf("%s z=%v: %d of the %d-byte blob's single-byte flips still decode; all %d refused",
			tc.codec, tc.z, decodable, len(blob), len(blob))
	}
}

// inflightTap records the highest value the put-inflight gauge was set to.
type inflightTap struct {
	mu  sync.Mutex
	max float64
}

func (*inflightTap) SpanStart(int, int, string)         {}
func (*inflightTap) SpanEnd(int, string, time.Duration) {}
func (tap *inflightTap) MetricUpdate(name string, v float64) {
	if name == "lcpio_svc_put_inflight" {
		tap.mu.Lock()
		tap.max = max(tap.max, v)
		tap.mu.Unlock()
	}
}

func (tap *inflightTap) highest() float64 {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return tap.max
}

// recording installs a registry with an inflight tap for the test's
// duration.
func recording(t *testing.T) (*obs.Registry, *inflightTap) {
	t.Helper()
	prev := obs.Active()
	t.Cleanup(func() { obs.Use(prev) })
	reg, tap := obs.NewRegistry(), &inflightTap{}
	reg.SetTap(tap)
	obs.Use(reg)
	return reg, tap
}

// TestPipelineMetrics: one compressed-wire dump leaves the pipeline's four
// series behind — a verification wait and a verdict wait per chunk, the
// seconds the verifiers ran, and an inflight gauge that rose, stayed within
// the window and is back to zero.
func TestPipelineMetrics(t *testing.T) {
	reg, tap := recording(t)
	srv := NewServer(Config{})
	if err := srv.AddTenant(TenantConfig{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	set := genSet("observed", 4, 1)
	res, err := startPair(t, srv).Dump("a", set, DumpOptions{Workers: 2, WireCodec: "sz"})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"lcpio_svc_verify_wait_seconds", "lcpio_svc_commit_wait_seconds"} {
		if got := reg.Histogram(h).Count(); got != int64(res.Chunks) {
			t.Errorf("%s has %d samples, want one per chunk (%d)", h, got, res.Chunks)
		}
	}
	if v, ok := reg.CounterValue("lcpio_svc_verify_seconds_total"); !ok || !(v > 0) {
		t.Errorf("lcpio_svc_verify_seconds_total = %v, %v", v, ok)
	}
	if now, high := reg.Gauge("lcpio_svc_put_inflight").Value(), tap.highest(); now != 0 || high < 1 || high > putWindow+1 {
		t.Errorf("lcpio_svc_put_inflight is %v after the dump and peaked at %v; want 0 and 1..%d", now, high, putWindow+1)
	}
}
