package svc

import (
	"fmt"
	"net"
	"testing"

	"lcpio/internal/ckpt"
	"lcpio/internal/compress"
	"lcpio/internal/fpdata"
)

// sinkMedium takes writes and keeps nothing, so a benchmark can dump as many
// sets as it likes into constant memory.
type sinkMedium struct{ size int64 }

func (m *sinkMedium) Size() int64 { return m.size }

func (m *sinkMedium) WriteAt(p []byte, off int64) (int, error) {
	m.size = max(m.size, off+int64(len(p)))
	return len(p), nil
}

func (m *sinkMedium) ReadAt(p []byte, off int64) (int, error) {
	clear(p)
	return len(p), nil
}

// BenchmarkDumpLoopback is one whole dump over a real loopback TCP listener
// — client compress, frames, the daemon's verification pool and committer —
// on the benchmark's NYX field at half its rank size: 8 ranks of 1 Mi
// float32 at a 1e-3 relative bound, as zfp with compressed-wire frames (every
// chunk inflate-verified) and as sz with plain ones. The MB/s column is raw
// bytes dumped per wall second.
func BenchmarkDumpLoopback(b *testing.B) {
	const ranks, elems, relEB = 8, 1 << 20, 1e-3
	spec, err := fpdata.Lookup("NYX", "")
	if err != nil {
		b.Fatal(err)
	}
	scale := spec.ScaleFor(elems)
	field := ckpt.Field{Name: spec.Field}
	for r := 0; r < ranks; r++ {
		f := fpdata.Generate(spec, scale, int64(r))
		if r == 0 {
			field.Dims, field.ErrorBound = f.Dims, compress.AbsBoundFromRelative(relEB, f.Data)
		}
		field.Data = append(field.Data, f.Data)
	}
	for _, tc := range []struct{ name, codec, wireCodec string }{
		{"zfp-putZ", "zfp", "zfp"},
		{"sz-put", "sz", ""},
	} {
		b.Run(tc.name, func(b *testing.B) {
			srv := NewServer(Config{Medium: &sinkMedium{}})
			if err := srv.AddTenant(TenantConfig{Name: "bench"}); err != nil {
				b.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- srv.Serve(ln) }()
			cl, conn, err := Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			set := ckpt.Set{Codec: tc.codec, Ranks: ranks, Fields: []ckpt.Field{field}}
			b.SetBytes(int64(ranks) * int64(len(field.Data[0])) * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				set.Name = fmt.Sprintf("%s-%d", tc.name, i)
				if _, err := cl.Dump("bench", set, DumpOptions{Workers: 2, ProjectedRatio: 2, WireCodec: tc.wireCodec}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			conn.Close()
			ln.Close()
			<-served
		})
	}
}
