package transit

import (
	"math"
	"net"
	"testing"

	"lcpio/internal/ckpt"
	"lcpio/internal/netsim"
	"lcpio/internal/nfs"
	"lcpio/internal/svc"
)

// benchWireSet builds a small deterministic checkpoint set for the wire
// codec overhead probe.
func benchWireSet(name string) ckpt.Set {
	set := ckpt.Set{
		Name: name, Meta: "transit-bench", Codec: "sz", Ranks: 4,
		Fields: []ckpt.Field{{Name: "p", Dims: []int{32, 48}, ErrorBound: 1e-3}},
	}
	f := &set.Fields[0]
	for r := 0; r < set.Ranks; r++ {
		data := make([]float32, 32*48)
		for i := range data {
			data[i] = float32(math.Sin(float64(i)/40 + float64(r)))
		}
		f.Data = append(f.Data, data)
	}
	return set
}

// benchDump runs one dump against a fresh daemon on a saturating mount and
// returns the daemon's accounting.
func benchDump(b *testing.B, opts svc.DumpOptions) svc.Result {
	b.Helper()
	mount := nfs.Mount{Link: netsim.Link{Name: "bench", BandwidthBps: 20e6, LatencySec: 5e-5, MTU: 9000}}
	srv := svc.NewServer(svc.Config{Mount: mount})
	if err := srv.AddTenant(svc.TenantConfig{Name: "bench"}); err != nil {
		b.Fatal(err)
	}
	cEnd, sEnd := net.Pipe()
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.ServeConn(sEnd) }()
	defer func() { cEnd.Close(); sEnd.Close(); <-done }()
	res, err := svc.NewClient(cEnd).Dump("bench", benchWireSet("probe"), opts)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkWireCodecDump is the wire-codec overhead probe: the wall cost of
// a dump through the daemon with plain PUT frames versus inflate-verified
// putZ frames, with the simulated makespan and the wire time saved reported
// beside it. It imports svc from inside package transit — legal only because
// svc's dependency chain no longer reaches transit.
func BenchmarkWireCodecDump(b *testing.B) {
	for _, bc := range []struct {
		name string
		opts svc.DumpOptions
	}{
		{"plain", svc.DumpOptions{Workers: 2}},
		{"wirez", svc.DumpOptions{Workers: 2, WireCodec: "sz"}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var res svc.Result
			for i := 0; i < b.N; i++ {
				res = benchDump(b, bc.opts)
			}
			b.ReportMetric(res.SimSeconds, "sim-s/dump")
			b.ReportMetric(res.WireSavedSeconds, "wire-saved-s/dump")
		})
	}
}
