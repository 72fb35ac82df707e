//go:build unix

package svc

import (
	"net"
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// cpuSeconds is the CPU time this process has used.
func cpuSeconds(t *testing.T) float64 {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	tv := func(v syscall.Timeval) float64 { return float64(v.Sec) + float64(v.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// TestPutFloodIsBounded: a client that writes put frames and never reads a
// reply. Over net.Pipe the committer blocks on its first reply, the reader
// fills the window and stops: the daemon holds putWindow+1 payloads (the
// gauge says so, and the client's next write does not complete), burns no
// CPU waiting, and when the connection closes aborts the session and
// refunds it.
func TestPutFloodIsBounded(t *testing.T) {
	reg, tap := recording(t)
	base := runtime.NumGoroutine()
	srv := NewServer(Config{})
	if err := srv.AddTenant(TenantConfig{Name: "climate"}); err != nil {
		t.Fatal(err)
	}
	cEnd, sEnd := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- srv.ServeConn(sEnd) }()
	cl := NewClient(cEnd)

	const chunks = 3 * (putWindow + 1)
	req := rampOpenReq("flood", "", smallElems)
	req.Ranks = chunks
	acc := openSession(t, cl, req)
	blob := smallBlob(t)
	var written atomic.Int64
	flooded := make(chan error, 1)
	go func() {
		for idx := 0; idx < chunks; idx++ {
			if err := writeFrame(cEnd, frame{Type: framePut, Session: acc.Session,
				Payload: encodePut(idx, blob)}); err != nil {
				flooded <- err
				return
			}
			written.Add(1)
		}
		flooded <- nil
	}()

	gauge := reg.Gauge("lcpio_svc_put_inflight")
	deadline := time.Now().Add(5 * time.Second)
	for written.Load() < putWindow+1 || gauge.Value() < putWindow+1 {
		if time.Now().After(deadline) {
			t.Fatalf("window never filled: %d frames written, %v payloads held", written.Load(), gauge.Value())
		}
		time.Sleep(time.Millisecond)
	}
	const hold = 100 * time.Millisecond
	cpu0 := cpuSeconds(t)
	time.Sleep(hold)
	if spent := cpuSeconds(t) - cpu0; spent > hold.Seconds()/2 {
		t.Errorf("daemon and client blocked on a full window used %.3f s of CPU in %v: something spins", spent, hold)
	}
	if got := written.Load(); got != putWindow+1 {
		t.Errorf("%d frames were taken off the connection, want the window's %d", got, putWindow+1)
	}
	if high := tap.highest(); high != putWindow+1 {
		t.Errorf("daemon held up to %v payloads, want exactly %d", high, putWindow+1)
	}
	if u, _ := srv.Usage("climate"); u.ActiveSessions != 1 || u.ReservedBytes == 0 {
		t.Fatalf("session not open under the flood: %+v", u)
	}

	cEnd.Close()
	<-served
	sEnd.Close()
	if err := <-flooded; err == nil {
		t.Error("the flood's writer finished on a closed connection")
	}
	if u, _ := srv.Usage("climate"); u != (TenantUsage{Name: "climate"}) {
		t.Errorf("ledger not settled after the flood: %+v", u)
	}
	if sets := srv.List(); len(sets) != 0 {
		t.Errorf("flood published %+v", sets)
	}
	if got := gauge.Value(); got != 0 {
		t.Errorf("%v payloads still counted inflight", got)
	}
	settled(t, base, "after the flood")
}
