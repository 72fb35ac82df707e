package zfp

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"lcpio/internal/bitstream"
	"lcpio/internal/wire"
)

// refDecodePlanes is the bit-serial plane decoder as it stood before the
// plane-word rewrite — one ReadBit per group-test bit, an n-iteration scatter
// per raw prefix — kept verbatim as the reference decodePlanes must match:
// coefficient words, error class and reader position.
func refDecodePlanes(r *bitstream.Reader, nb []uint64, kmin, kmax int) error {
	size := len(nb)
	for i := range nb {
		nb[i] = 0
	}
	n := 0
	for k := kmax - 1; k >= kmin; k-- {
		if n > 0 {
			v, err := r.ReadBits(uint(n))
			if err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				nb[i] |= ((v >> uint(n-1-i)) & 1) << uint(k)
			}
		}
		for i := n; i < size; {
			g, err := r.ReadBit()
			if err != nil {
				return err
			}
			if g == 0 {
				break
			}
			for i < size-1 {
				b, err := r.ReadBit()
				if err != nil {
					return err
				}
				if b == 1 {
					break
				}
				i++
			}
			nb[i] |= 1 << uint(k)
			i++
			n = i
		}
	}
	return nil
}

// decodePlanes is readBlock's plane read and rebuildBlock's unpack of it,
// composed: the plane decoder the reference and the plane tests hold to.
func decodePlanes(r *bitstream.Reader, nb []uint64, kmin, kmax int) error {
	if len(nb) != 64 {
		return decodePlanesSmall(r, nb, kmin, kmax)
	}
	var planes [64]uint64
	if err := readPlanes(r, &planes, kmin, kmax); err != nil {
		return err
	}
	unpackPlanes((*[64]uint64)(nb), &planes, kmin, kmax)
	return nil
}

// planesHeader reads a coded block's header up to the planes, or reports
// that the block carries none. It is readBlock's own parse, shared by the
// block-level differential so both decoders start each block's planes from
// the same bit.
func planesHeader(r *bitstream.Reader, dim int) (coded bool, kmin, kmax int, err error) {
	tag, err := r.ReadBits(2)
	if err != nil {
		return false, 0, 0, err
	}
	switch tag {
	case tagZero:
		return false, 0, 0, nil
	case tagRaw:
		for i := 0; i < blockSize(dim); i++ {
			if _, err := r.ReadBits(32); err != nil {
				return false, 0, 0, err
			}
		}
		return false, 0, 0, nil
	case tagCoded:
		if _, err := r.ReadBits(emaxFieldBits); err != nil {
			return false, 0, 0, err
		}
		k64, err := r.ReadBits(6)
		if err != nil {
			return false, 0, 0, err
		}
		kx64, err := r.ReadBits(6)
		if err != nil {
			return false, 0, 0, err
		}
		kmin, kmax = int(k64), int(kx64)
		if kmin >= hiPlane || kmax > hiPlane || kmax < kmin {
			return false, 0, 0, ErrCorrupt
		}
		return true, kmin, kmax, nil
	default:
		return false, 0, 0, ErrCorrupt
	}
}

func planesErrClass(err error) error {
	for _, class := range []error{bitstream.ErrOverrun, ErrCorrupt} {
		if errors.Is(err, class) {
			return class
		}
	}
	return err
}

// diffPlanes runs both plane decoders from the same bit of the same stream
// and requires the same error class, and on success the same coefficient
// words and the same reader position. It returns the shared outcome.
func diffPlanes(t testing.TB, got, ref *bitstream.Reader, size, kmin, kmax int, what string) error {
	t.Helper()
	gnb := make([]uint64, size)
	wnb := make([]uint64, size)
	// Stale scratch must not leak into the result.
	for i := range gnb {
		gnb[i] = ^uint64(0)
	}
	gerr := decodePlanes(got, gnb, kmin, kmax)
	werr := refDecodePlanes(ref, wnb, kmin, kmax)
	if planesErrClass(gerr) != planesErrClass(werr) {
		t.Fatalf("%s: err %v, reference %v", what, gerr, werr)
	}
	if werr != nil {
		return werr
	}
	for i := range wnb {
		if gnb[i] != wnb[i] {
			t.Fatalf("%s: nb[%d] = %#x, reference %#x", what, i, gnb[i], wnb[i])
		}
	}
	if got.BitsRemaining() != ref.BitsRemaining() {
		t.Fatalf("%s: reader has %d bits left, reference %d", what, got.BitsRemaining(), ref.BitsRemaining())
	}
	return nil
}

// diffPlanesStream decodes one planes stream that starts `phase` bits into
// buf, from the whole buffer and from every byte-prefix of it.
func diffPlanesStream(t *testing.T, buf []byte, phase, size, kmin, kmax int, what string) {
	t.Helper()
	for cut := len(buf); cut >= 0; cut-- {
		got, ref := bitstream.NewReader(buf[:cut]), bitstream.NewReader(buf[:cut])
		if got.Skip(uint(phase)) != nil || ref.Skip(uint(phase)) != nil {
			continue
		}
		err := diffPlanes(t, got, ref, size, kmin, kmax, fmt.Sprintf("%s cut %d/%d", what, cut, len(buf)))
		if cut == len(buf) && err != nil {
			t.Fatalf("%s: complete stream rejected: %v", what, err)
		}
	}
}

// TestDecodePlanesEveryRun drives the run decoder through every group-test
// run length at every size of the significant prefix, for all three block
// sizes and every bit phase of the reader: plane 1 makes the first n
// coefficients significant, plane 0 then carries n raw bits and one run of t
// zeros ending on coefficient n+t — terminated by a one, or by reaching the
// last slot.
func TestDecodePlanesEveryRun(t *testing.T) {
	s := xs64(0x1234567)
	for _, size := range []int{4, 16, 64} {
		nb := make([]uint64, size)
		for n := 0; n < size; n++ {
			for run := 0; n+run < size; run++ {
				clear(nb)
				for i := 0; i < n; i++ {
					nb[i] = 2 | s.next()&1
				}
				nb[n+run] |= 1
				phase := int(s.next() % 64)
				w := bitstream.NewWriter(64)
				w.WriteBits(s.next(), uint(phase))
				encodePlanes(w, nb, 0, 2)
				// Trailing bits a following block would own.
				w.WriteBits(s.next(), 24)
				diffPlanesStream(t, w.Bytes(), phase, size, 0, 2,
					fmt.Sprintf("size %d prefix %d run %d", size, n, run))
			}
		}
	}
}

// TestDecodePlanesMatchesReference: random multi-plane blocks (dense raw
// prefixes, long runs, empty planes) over a spread of cutoffs, whole and
// truncated at every byte.
func TestDecodePlanesMatchesReference(t *testing.T) {
	s := xs64(0xFEEDFACE)
	for _, size := range []int{4, 16, 64} {
		nb := make([]uint64, size)
		for _, win := range planeWindows([]int{0, 1, 7, 23, 54, 62}, func(kmax int) []int {
			return []int{0, 1, kmax / 2, kmax - 1, kmax}
		}) {
			kmin, kmax := win[0], win[1]
			for trial := 0; trial < 6; trial++ {
				randomPlaneWords(&s, nb, kmax)
				if trial == 0 {
					clear(nb) // all planes empty: one zero group bit each
				}
				phase := int(s.next() % 64)
				w := bitstream.NewWriter(512)
				w.WriteBits(s.next(), uint(phase))
				encodePlanes(w, nb, kmin, kmax)
				diffPlanesStream(t, w.Bytes(), phase, size, kmin, kmax,
					fmt.Sprintf("size %d kmin %d kmax %d trial %d", size, kmin, kmax, trial))
			}
		}
	}
}

// diffBlocks walks a block payload with both plane decoders until the
// blocks, the payload or the decoders' patience run out, comparing them at
// every coded block. It reports whether all `blocks` blocks decoded.
func diffBlocks(t testing.TB, payload []byte, dim, blocks int, what string) bool {
	t.Helper()
	got, ref := bitstream.NewReader(payload), bitstream.NewReader(payload)
	for b := 0; b < blocks; b++ {
		coded, kmin, kmax, err := planesHeader(got, dim)
		if _, _, _, rerr := planesHeader(ref, dim); planesErrClass(rerr) != planesErrClass(err) {
			t.Fatalf("%s: block %d header: %v vs %v", what, b, err, rerr)
		}
		if err != nil {
			return false
		}
		if !coded {
			continue
		}
		if diffPlanes(t, got, ref, blockSize(dim), kmin, kmax, fmt.Sprintf("%s block %d", what, b)) != nil {
			return false
		}
	}
	return true
}

// goldenPayload is one contiguous block stream out of a pinned golden file.
type goldenPayload struct {
	name   string
	dim    int
	blocks int
	bytes  []byte
}

// goldenPayloads cuts the goldens into their shards' block streams, the unit
// the plane decoder works on. The retired fixed-precision golden is refused by
// mode, but its payload is one serial stream of blocks in the same layout, so
// it stays a plane-decoder input; the retired fixed-rate and float64 goldens'
// blocks have another layout, so they are skipped.
func goldenPayloads(tb testing.TB) []goldenPayload {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "golden_*.zfs"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no golden streams: %v", err)
	}
	var out []goldenPayload
	for _, path := range paths {
		buf, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		switch filepath.Base(path) {
		case rateGolden, f64Golden:
			continue
		case precGolden:
			buf = forgeMode(buf, modeAccuracy)
			h, total := blockCount(tb, buf)
			out = append(out, goldenPayload{precGolden, rank(h.dims), total, buf[h.payloadOff:]})
			continue
		}
		out = append(out, shardPayloads(tb, filepath.Base(path), buf)...)
	}
	if len(out) == 0 {
		tb.Fatal("goldens yielded no block streams")
	}
	return out
}

// blockCount parses a stream's header and counts the blocks of its grid.
func blockCount(tb testing.TB, buf []byte) (header, int) {
	tb.Helper()
	h, err := parseHeader(buf, nil)
	if err != nil {
		tb.Fatal(err)
	}
	dim, d0, d1, d2 := wire.Collapse(h.dims)
	nb0, nb1, nb2 := blockGrid(d0, d1, d2, dim)
	return h, nb0 * nb1 * nb2
}

// shardPayloads cuts a stream into its shards' block streams.
func shardPayloads(tb testing.TB, name string, buf []byte) []goldenPayload {
	tb.Helper()
	h, total := blockCount(tb, buf)
	rd := wire.NewReader(buf[h.payloadOff:], ErrCorrupt)
	shards, sb := int(rd.Uint32()), int(rd.Uint32())
	lens := make([]int, shards)
	for i := range lens {
		lens[i] = int(rd.Uint64())
	}
	var out []goldenPayload
	for i, l := range lens {
		out = append(out, goldenPayload{fmt.Sprintf("%s shard %d", name, i),
			rank(h.dims), min(sb, total-i*sb), rd.Bytes(l)})
	}
	if rd.Err() != nil {
		tb.Fatalf("%s: shard index: %v", name, rd.Err())
	}
	return out
}

func (g goldenPayload) diff(t testing.TB, payload []byte, what string) bool {
	return diffBlocks(t, payload, g.dim, g.blocks, what)
}

// TestGoldenPayloadPrefixes: every golden block stream decodes identically
// under both plane decoders, and every byte-prefix of it fails in both with
// the same error class — truncation is never papered over by the zero
// padding the peeks see.
func TestGoldenPayloadPrefixes(t *testing.T) {
	for _, g := range goldenPayloads(t) {
		if !g.diff(t, g.bytes, g.name) {
			t.Fatalf("%s: complete payload did not decode", g.name)
		}
		for cut := 0; cut < len(g.bytes); cut++ {
			// The last byte may hold only padding; anything shorter must fail.
			if g.diff(t, g.bytes[:cut], fmt.Sprintf("%s cut %d", g.name, cut)) && cut < len(g.bytes)-1 {
				t.Fatalf("%s: %d-byte prefix of %d decoded all %d blocks", g.name, cut, len(g.bytes), g.blocks)
			}
		}
	}
}

// TestGoldenStreamPrefixes: every byte-prefix of every golden stream, the
// retired configurations' too, is an error from the public decoder — never a
// success, never a panic.
func TestGoldenStreamPrefixes(t *testing.T) {
	paths, _ := filepath.Glob(filepath.Join("testdata", "golden_*.zfs"))
	if len(paths) == 0 {
		t.Fatal("no golden streams")
	}
	h := NewHandle(0)
	for _, path := range paths {
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(buf); cut++ {
			if _, _, err := h.Decompress(buf[:cut]); err == nil {
				t.Fatalf("%s: Decompress of %d-byte prefix succeeded", path, cut)
			}
		}
	}
}

// FuzzDecodePlanesDifferential: on any bytes read as a block stream of any
// dimensionality, the plane-word decoder and the bit-serial
// reference agree block by block — words, position, error class. Seeded with
// the golden block streams, whole, truncated and bit-flipped.
func FuzzDecodePlanesDifferential(f *testing.F) {
	for _, g := range goldenPayloads(f) {
		sel := byte(g.dim - 1)
		p := g.bytes
		if len(p) > 2048 {
			p = p[:2048]
		}
		f.Add(sel, p)
		f.Add(sel, p[:len(p)/2])
		flip := append([]byte(nil), p...)
		flip[len(flip)/3] ^= 0x04
		f.Add(sel, flip)
	}
	// Hand-built block streams whose live-plane counts sit on and either
	// side of every shape change of the windowed transpose, which nothing
	// obliges the goldens to reach; selector 2 reads them as 3-D blocks.
	s := xs64(0x5EED5EED)
	nb := make([]uint64, 64)
	for _, win := range planeWindows(nil, nil) {
		w := bitstream.NewWriter(1024)
		for b := 0; b < 3; b++ {
			randomPlaneWords(&s, nb, win[1])
			w.WriteBits(tagCoded, 2)
			w.WriteBits(emaxBias, emaxFieldBits)
			w.WriteBits(uint64(win[0]), 6)
			w.WriteBits(uint64(win[1]), 6)
			encodePlanes(w, nb, win[0], win[1])
		}
		p := append([]byte(nil), w.Bytes()...)
		f.Add(byte(2), p)
		f.Add(byte(2), p[:len(p)*2/3])
	}
	f.Fuzz(func(t *testing.T, sel byte, payload []byte) {
		diffBlocks(t, payload, int(sel&3)%3+1, 1<<12, "fuzz payload")
	})
}

// benchPlanes encodes the planes of `blocks` blocks of a smooth-plus-noise
// field the way encodeBlock would (quantize, transform, negabinary, cutoff
// from the tolerance) and returns the stream with each block's plane range.
func benchPlanes(dim, blocks int, eb float64) (stream []byte, kmins, kmaxs []int) {
	size := blockSize(dim)
	s := xs64(0xABCDEF12345)
	coef := make([]int64, size)
	nb := make([]uint64, size)
	w := bitstream.NewWriter(blocks * size * 2)
	for b := 0; b < blocks; b++ {
		maxAbs := 0.0
		vals := make([]float64, size)
		for i := range vals {
			x := float64(b*size+i) / 37
			vals[i] = 40*math.Sin(x/9) + 3*math.Cos(x) + float64(int64(s.next()%2001)-1000)/4000
			maxAbs = math.Max(maxAbs, math.Abs(vals[i]))
		}
		_, emax := math.Frexp(maxAbs)
		scale := math.Ldexp(1, qBits-emax)
		for i, v := range vals {
			coef[i] = int64(math.RoundToEven(v * scale))
		}
		fwdTransform(coef, dim)
		var all uint64
		for i, p := range permFor(dim) {
			nb[i] = int2nb(coef[p])
			all |= nb[i]
		}
		kmax := min(bitsLen(all), hiPlane)
		kmin := min(max(int(math.Floor(math.Log2(eb)))+qBits-emax-1, 0), kmax)
		encodePlanes(w, nb, kmin, kmax)
		kmins = append(kmins, kmin)
		kmaxs = append(kmaxs, kmax)
	}
	return w.Bytes(), kmins, kmaxs
}

// BenchmarkDecodePlanes measures the plane decoder alone on 1-D, 2-D and 3-D
// blocks; MB/s is over the float32 bytes the blocks stand for.
func BenchmarkDecodePlanes(b *testing.B) {
	for dim := 1; dim <= 3; dim++ {
		b.Run(fmt.Sprintf("%dD", dim), func(b *testing.B) {
			size := blockSize(dim)
			blocks := (1 << 16) / size
			stream, kmins, kmaxs := benchPlanes(dim, blocks, 1e-3)
			nb := make([]uint64, size)
			var r bitstream.Reader
			b.SetBytes(int64(blocks * size * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Reset(stream)
				for j := range kmins {
					if err := decodePlanes(&r, nb, kmins[j], kmaxs[j]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(stream))*8/float64(blocks*size), "bits/value")
		})
	}
}
