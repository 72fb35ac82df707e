package zfp

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"lcpio/internal/fpdata"
	"lcpio/internal/wire"
)

// The bound, worker identity, Into and hostile-bytes contracts every codec
// shares are the compress package's conformance suite, which runs them on the
// same classes as the tests below; these hold what only zfp claims on them.

// ratio is data's raw size over its one-worker stream's at eb.
func ratio[F Float](t *testing.T, data []F, dims []int, eb float64) float64 {
	t.Helper()
	stream, err := compressInto(NewHandle(1), nil, data, dims, eb)
	if err != nil {
		t.Fatal(err)
	}
	return float64(len(data)*int(wire.ElemBits[F]()/8)) / float64(len(stream))
}

// decoded is data back through its one-worker stream at eb.
func decoded[F Float](t *testing.T, data []F, dims []int, eb float64) []F {
	t.Helper()
	stream, err := compressInto(NewHandle(1), nil, data, dims, eb)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := decompressWith[F](NewHandle(1), nil, stream)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// withinBound reports whether data decodes within eb of itself under the
// shard plan the caller set.
func withinBound[F Float](data []F, dims []int, eb float64) bool {
	stream, err := compressInto(NewHandle(2), nil, data, dims, eb)
	if err != nil {
		return false
	}
	out, _, err := decompressWith[F](NewHandle(2), nil, stream)
	if err != nil || len(out) != len(data) {
		return false
	}
	for i := range out {
		if !(math.Abs(float64(out[i])-float64(data[i])) <= eb) {
			return false
		}
	}
	return true
}

func TestZeroField(t *testing.T) {
	if r := ratio(t, make([]float32, 256), []int{256}, 1e-6); r < 1024.0/200 {
		t.Fatalf("zero field should compress to near-header size, got ratio %.2f", r)
	}
}

// TestConstantField3D: a constant block is its DC coefficient alone.
func TestConstantField3D(t *testing.T) {
	data := make([]float32, 16*16*16)
	for i := range data {
		data[i] = 2.5
	}
	if r := ratio(t, data, []int{16, 16, 16}, 1e-4); r < 25 {
		t.Fatalf("constant 3-D field ratio %.2f; want >= 25", r)
	}
}

func TestSmooth1D(t *testing.T) {
	data := make([]float32, 4000)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) / 50))
	}
	// 1-D blocks carry a 20-bit header per 4 values, so expect a modest
	// ratio.
	if r := ratio(t, data, []int{4000}, 1e-3); r < 1.9 {
		t.Fatalf("smooth 1-D should compress ~2x, got %.2f", r)
	}
}

// TestSmooth2D: 4x4 blocks pay even when neither dimension is a multiple of
// four — the same values read as one row compress worse.
func TestSmooth2D(t *testing.T) {
	d1, d2 := 60, 100
	data := make([]float32, d1*d2)
	for i := 0; i < d1; i++ {
		for j := 0; j < d2; j++ {
			data[i*d2+j] = float32(math.Sin(float64(i)/9) * math.Cos(float64(j)/7))
		}
	}
	r2, r1 := ratio(t, data, []int{d1, d2}, 1e-4), ratio(t, data, []int{d1 * d2}, 1e-4)
	if r2 < 1.3*r1 {
		t.Fatalf("2-D ratio %.2f vs %.2f as 1-D; want 2-D blocks 1.3x ahead", r2, r1)
	}
}

func TestSmooth3D(t *testing.T) {
	d := 18 // partial blocks on every axis
	data := make([]float32, d*d*d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			for k := 0; k < d; k++ {
				data[(i*d+j)*d+k] = float32(math.Sin(float64(i)/6)*math.Cos(float64(j)/5) + math.Sin(float64(k)/7))
			}
		}
	}
	// 18^3 means every axis ends in a padded partial block (~37% replicated
	// samples), so expect less than the full-block ratio.
	if r := ratio(t, data, []int{d, d, d}, 1e-3); r < 2 {
		t.Fatalf("smooth 3-D should compress >2x even with partial blocks, got %.2f", r)
	}
}

func TestAccuracySweepMonotone(t *testing.T) {
	spec, _ := fpdata.Lookup("NYX", "")
	f := fpdata.Generate(spec, 32, 5)
	lo, hi := f.Range()
	prev := math.Inf(1)
	for _, rel := range []float64{1e-1, 1e-2, 1e-3, 1e-4} {
		r := ratio(t, f.Data, f.Dims, rel*float64(hi-lo))
		if r > prev {
			t.Errorf("finer tolerance %g compressed better (%.2f > %.2f)", rel, r, prev)
		}
		prev = r
	}
}

func TestNonFiniteValuesGoRaw(t *testing.T) {
	data := make([]float32, 64)
	for i := range data {
		data[i] = float32(i)
	}
	data[10] = float32(math.NaN())
	data[33] = float32(math.Inf(1))
	out := decoded(t, data, []int{64}, 1e-3)
	// The blocks holding them (8..11, 32..35) are raw: their finite values
	// come back exactly.
	for _, i := range []int{8, 9, 11, 32, 34, 35} {
		if out[i] != data[i] {
			t.Errorf("element %d of a raw block: %g decoded as %g", i, data[i], out[i])
		}
	}
}

func TestTinyToleranceFallsBackToRaw(t *testing.T) {
	// A tolerance below fixed-point resolution forces raw blocks; values
	// must then be exact.
	rng := rand.New(rand.NewSource(1))
	data := make([]float32, 64)
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	out := decoded(t, data, []int{64}, 1e-30)
	for i := range data {
		if out[i] != data[i] {
			t.Fatalf("raw fallback not exact at %d: %v vs %v", i, out[i], data[i])
		}
	}
}

// TestMixedMagnitudes: a block's common exponent is its largest value's, so
// that value comes back exactly while the block's small ones fall to the
// tolerance's grid.
func TestMixedMagnitudes(t *testing.T) {
	data := []float32{1e-20, 1e20, -1e20, 1, -1, 0, 3.14, -2.71,
		1e10, -1e-10, 42, 0.001, 7e7, -7e-7, 0, 1e5}
	out := decoded(t, data, []int{16}, 1.0)
	for _, i := range []int{1, 2, 8, 12, 15} {
		if out[i] != data[i] {
			t.Errorf("block maximum %d: %g decoded as %g", i, data[i], out[i])
		}
	}
}

// TestSingletonDims: singleton dimensions fold away, so each costs the
// stream only its u64 in the header.
func TestSingletonDims(t *testing.T) {
	data := make([]float32, 128)
	for i := range data {
		data[i] = float32(i) / 8
	}
	var lens []int
	for _, dims := range [][]int{{128}, {1, 128}, {1, 1, 128}} {
		stream, err := NewHandle(0).Compress(data, dims, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		lens = append(lens, len(stream))
	}
	if lens[1] != lens[0]+8 || lens[2] != lens[0]+16 {
		t.Fatalf("stream lengths %v for 128, 1x128, 1x1x128; want one u64 apart", lens)
	}
}

// TestOddLengths: a partial block is padded, never split — an odd length's
// stream is no longer than the next multiple of four's.
func TestOddLengths(t *testing.T) {
	length := func(n int) int {
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(math.Sin(float64(i)))
		}
		stream, err := NewHandle(0).Compress(data, []int{n}, 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		return len(stream)
	}
	for _, n := range []int{1, 2, 3, 5, 7, 15, 17, 63, 65} {
		if odd, whole := length(n), length((n+3)/4*4); odd > whole {
			t.Errorf("n=%d: %d bytes, more than the %d of n=%d", n, odd, whole, (n+3)/4*4)
		}
	}
}

// TestInvalidInputs: a shape that does not fit the data and a bound that is not
// positive and finite are refused with a zfp error, though the shape caps
// are package wire's.
func TestInvalidInputs(t *testing.T) {
	data := []float32{1, 2, 3, 4}
	for _, c := range []struct {
		dims []int
		eb   float64
	}{
		{[]int{5}, 1e-3}, {nil, 1e-3}, {[]int{4}, 0}, {[]int{4}, math.Inf(1)},
		{[]int{1, 1, 1, 1, 1, 1, 1, 1, 4}, 1e-3}, {[]int{4, 0}, 1e-3},
	} {
		if _, err := NewHandle(0).Compress(data, c.dims, c.eb); err == nil || !strings.HasPrefix(err.Error(), "zfp: ") {
			t.Errorf("dims %v eb %g: got %v, want a zfp error", c.dims, c.eb, err)
		}
	}
}

// TestDecompressCorrupt: a truncated or garbage stream is ErrCorrupt, and so
// is a header claiming far more blocks than the payload could code — refused
// before the output it describes is sized.
func TestDecompressCorrupt(t *testing.T) {
	data := make([]float32, 300)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) / 5))
	}
	comp, err := NewHandle(0).Compress(data, []int{300}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{comp[:0], comp[:4], comp[:11], comp[:len(comp)/2], make([]byte, 64)} {
		if _, _, err := NewHandle(0).Decompress(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%d-byte stream: %v, want ErrCorrupt", len(bad), err)
		}
	}
	// One dim: dims[0] at byte 20, then the tolerance, the shard count and
	// the shard size. Claim 2^22 elements in one shard that covers them all.
	forged := append([]byte(nil), comp...)
	binary.LittleEndian.PutUint64(forged[20:], 1<<22)
	binary.LittleEndian.PutUint32(forged[36:], 1)
	binary.LittleEndian.PutUint32(forged[40:], 1<<20)
	requireRefused(t, forged)
	if _, _, err := NewHandle(0).Decompress(forged); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged element count: %v, want ErrCorrupt", err)
	}
}

func TestLiftRoundTripExactOnAlignedValues(t *testing.T) {
	// Values divisible by 8 survive fwd+inv lift exactly (no bits lost to
	// the right-shifts).
	p := []int64{8, 16, -24, 32}
	want := append([]int64(nil), p...)
	fwdLift(p, 0, 1)
	invLift(p, 0, 1)
	for i := range p {
		if p[i] != want[i] {
			t.Fatalf("aligned lift mismatch at %d: %d vs %d", i, p[i], want[i])
		}
	}
}

func TestLiftRoundTripBoundedError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		p := make([]int64, 4)
		want := make([]int64, 4)
		for i := range p {
			p[i] = int64(rng.Intn(2001) - 1000)
			want[i] = p[i]
		}
		fwdLift(p, 0, 1)
		invLift(p, 0, 1)
		for i := range p {
			d := p[i] - want[i]
			if d < -4 || d > 4 {
				t.Fatalf("lift round-off too large: %v vs %v", p, want)
			}
		}
	}
}

func TestNegabinaryRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 1000, -1000, 1 << 40, -(1 << 40), math.MaxInt32, math.MinInt32} {
		if got := nb2int(int2nb(v)); got != v {
			t.Fatalf("negabinary round trip: %d -> %d", v, got)
		}
	}
}

func TestNegabinaryTruncationErrorBounded(t *testing.T) {
	// Zeroing planes below k changes the decoded integer by < 2^(k+1):
	// the property fixed-accuracy mode relies on.
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 5000; trial++ {
		v := int64(rng.Intn(1<<30) - 1<<29)
		k := uint(rng.Intn(20))
		nb := int2nb(v)
		trunc := nb &^ ((1 << k) - 1)
		got := nb2int(trunc)
		if d := got - v; d >= 1<<(k+1) || d <= -(1<<(k+1)) {
			t.Fatalf("truncation error |%d| >= 2^%d for v=%d k=%d", d, k+1, v, k)
		}
	}
}

func TestPermutationIsBijective(t *testing.T) {
	for dim := 1; dim <= 3; dim++ {
		perm := permFor(dim)
		n := blockSize(dim)
		if len(perm) != n {
			t.Fatalf("dim %d: perm len %d", dim, len(perm))
		}
		seen := make([]bool, n)
		for _, p := range perm {
			if p < 0 || p >= n || seen[p] {
				t.Fatalf("dim %d: invalid perm %v", dim, perm)
			}
			seen[p] = true
		}
		// First entry must be the DC coefficient (index 0).
		if perm[0] != 0 {
			t.Fatalf("dim %d: DC not first: %v", dim, perm[:4])
		}
	}
}

func TestPlaneCodingRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 300; trial++ {
		size := []int{4, 16, 64}[rng.Intn(3)]
		nb := make([]uint64, size)
		for i := range nb {
			// Sparse-ish magnitudes like real transformed blocks.
			nb[i] = rng.Uint64() >> uint(rng.Intn(50)) & ((1 << hiPlane32) - 1)
		}
		kmin := rng.Intn(hiPlane32)
		kmax := hiPlane32
		w := newTestWriter()
		encodePlanes(w, nb, kmin, kmax)
		got := make([]uint64, size)
		if err := decodePlanes(newTestReader(w), got, kmin, kmax); err != nil {
			t.Fatalf("decodePlanes: %v", err)
		}
		mask := ^uint64(0) << uint(kmin)
		for i := range nb {
			if got[i] != nb[i]&mask&((1<<hiPlane32)-1) {
				t.Fatalf("plane mismatch at %d: got %#x want %#x (kmin=%d)",
					i, got[i], nb[i]&mask, kmin)
			}
		}
		// Tight kmax (leading-zero skip) must also round-trip.
		var all uint64
		for _, v := range nb {
			all |= v
		}
		tight := bitsLen(all)
		if tight < kmin {
			tight = kmin
		}
		w2 := newTestWriter()
		encodePlanes(w2, nb, kmin, tight)
		got2 := make([]uint64, size)
		if err := decodePlanes(newTestReader(w2), got2, kmin, tight); err != nil {
			t.Fatalf("decodePlanes tight: %v", err)
		}
		for i := range nb {
			if got2[i] != nb[i]&mask {
				t.Fatalf("tight kmax mismatch at %d: got %#x want %#x", i, got2[i], nb[i]&mask)
			}
		}
	}
}

// toleranceCase is the generator the tolerance property ran on when it found
// TestToleranceNearULP's inputs: up to 1500
// normal values at magnitudes 1e-3..1e3 and a tolerance in 1e0..1e-5, so
// some cases put the tolerance near or below a float32 ULP of the data.
func toleranceCase(seed int64, tolExp uint8) (data []float32, eb float64) {
	rng := rand.New(rand.NewSource(seed))
	n := rng.Intn(1500) + 1
	data = make([]float32, n)
	for i := range data {
		data[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)))
	}
	return data, math.Pow(10, -float64(tolExp%6))
}

// shapes reshapes n elements as 1-D, 2-D and 3-D arrays (trimming the tail
// that does not fill the last row or plane).
func shapes(n int) [][]int {
	out := [][]int{{n}}
	if n >= 7 {
		out = append(out, []int{n / 7, 7})
	}
	if n >= 35 {
		out = append(out, []int{n / 35, 5, 7})
	}
	return out
}

// TestToleranceNearULP pins inputs whose tolerance sits within a float32
// ULP of the block magnitude. The verifier used to compare the float64
// reconstruction against the bound while the decoder stores it rounded to
// float32, so these decoded 1.2207e-4 off under a 1e-4 tolerance. The same
// inputs run through every dimensionality and the float64 codec.
func TestToleranceNearULP(t *testing.T) {
	cases := []struct {
		seed   int64
		tolExp uint8
	}{
		{-1507911686996155809, 4},
		{8315908794388812275, 0xac},
		{-3506659674458986639, 0xca},
		{-2097188650304622172, 0xd0},
		{-3442894213092434559, 0x88},
	}
	for _, c := range cases {
		data, eb := toleranceCase(c.seed, c.tolExp)
		for _, dims := range shapes(len(data)) {
			n := 1
			for _, d := range dims {
				n *= d
			}
			data64 := make([]float64, n)
			for i := range data64 {
				data64[i] = float64(data[i])
			}
			if !withinBound(data[:n], dims, eb) || !withinBound(data64, dims, eb) {
				t.Errorf("seed %d dims %v: error past tolerance %g", c.seed, dims, eb)
			}
		}
	}
}

// smallShards pins the shard plan to shards as small as one block for the
// rest of the test, so every stream is many shards — a plan the compress
// suite cannot set.
func smallShards(t *testing.T) {
	saved := shardMinBlocks
	shardMinBlocks = 1
	t.Cleanup(func() { shardMinBlocks = saved })
}

// TestQuickTolerance3D: the tolerance holds on random 3-D shapes, partial
// blocks on every axis, cut into one-block shards.
func TestQuickTolerance3D(t *testing.T) {
	smallShards(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d0, d1, d2 := rng.Intn(9)+1, rng.Intn(9)+1, rng.Intn(9)+1
		data := make([]float32, d0*d1*d2)
		for i := range data {
			data[i] = float32(math.Sin(float64(i)/4) * 50)
		}
		return withinBound(data, []int{d0, d1, d2}, 1e-2)
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.3, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
