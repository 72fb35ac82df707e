package ec

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

func TestGFFieldAxioms(t *testing.T) {
	// Spot-check the table arithmetic against the field axioms on a seeded
	// sample (the full 256^3 associativity sweep is excessive for CI).
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if gfMul(a, b) != gfMul(b, a) {
			t.Fatalf("mul not commutative at %d,%d", a, b)
		}
		if gfMul(a, gfMul(b, c)) != gfMul(gfMul(a, b), c) {
			t.Fatalf("mul not associative at %d,%d,%d", a, b, c)
		}
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatalf("mul not distributive at %d,%d,%d", a, b, c)
		}
	}
	for a := 1; a < 256; a++ {
		if gfMul(byte(a), gfInv(byte(a))) != 1 {
			t.Fatalf("inv broken at %d", a)
		}
		if gfMul(byte(a), 0) != 0 || gfMul(byte(a), 1) != byte(a) {
			t.Fatalf("identity/zero broken at %d", a)
		}
	}
}

func TestGFPow(t *testing.T) {
	if gfPow(0, 0) != 1 || gfPow(0, 5) != 0 || gfPow(7, 0) != 1 {
		t.Fatal("pow edge cases")
	}
	for a := 1; a < 256; a += 13 {
		acc := byte(1)
		for n := 0; n < 10; n++ {
			if got := gfPow(byte(a), n); got != acc {
				t.Fatalf("pow(%d,%d) = %d, want %d", a, n, got, acc)
			}
			acc = gfMul(acc, byte(a))
		}
	}
}

func TestMatrixInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 3, 5, 8} {
		// Vandermonde tops are always invertible; random matrices mostly are.
		v := vandermonde(n+2, n)
		top := matrix(v[:n])
		inv, err := top.invert()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		prod := top.mul(inv)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := byte(0)
				if i == j {
					want = 1
				}
				if prod[i][j] != want {
					t.Fatalf("n=%d: A·A^-1[%d][%d] = %d", n, i, j, prod[i][j])
				}
			}
		}
		_ = rng
	}
	// Singular matrices must be rejected, not mis-inverted.
	sing := newMatrix(2, 2)
	sing[0][0], sing[0][1] = 3, 5
	sing[1][0], sing[1][1] = 3, 5
	if _, err := sing.invert(); err == nil {
		t.Fatal("singular matrix inverted")
	}
}

func TestSystematicProperty(t *testing.T) {
	// Parity of unit data vectors must equal the parity matrix columns —
	// i.e. data shards pass through the systematic generator unchanged.
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]byte, 4)
	for i := range data {
		data[i] = make([]byte, 4)
	}
	data[2][0] = 1 // unit vector e_2 in byte position 0
	parity, err := c.Encode(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		if parity[j][0] != c.parity[j][2] {
			t.Fatalf("parity[%d][0] = %d, want coefficient %d", j, parity[j][0], c.parity[j][2])
		}
	}
}

func testShards(rng *rand.Rand, k, shardLen int) [][]byte {
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, shardLen)
		rng.Read(data[i])
	}
	return data
}

func TestEncodeReconstructAllErasurePatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, geo := range []struct{ k, m int }{{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 4}} {
		c, err := New(geo.k, geo.m)
		if err != nil {
			t.Fatal(err)
		}
		data := testShards(rng, geo.k, 512)
		parity, err := c.Encode(data, 2)
		if err != nil {
			t.Fatal(err)
		}
		n := geo.k + geo.m
		// Every erasure pattern with <= m losses must reconstruct exactly.
		for mask := 0; mask < 1<<n; mask++ {
			lost := 0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					lost++
				}
			}
			if lost == 0 || lost > geo.m {
				continue
			}
			shards := make([][]byte, n)
			for i := 0; i < geo.k; i++ {
				if mask&(1<<i) == 0 {
					shards[i] = append([]byte(nil), data[i]...)
				}
			}
			for j := 0; j < geo.m; j++ {
				if mask&(1<<(geo.k+j)) == 0 {
					shards[geo.k+j] = append([]byte(nil), parity[j]...)
				}
			}
			if err := c.Reconstruct(shards, 2); err != nil {
				t.Fatalf("k=%d m=%d mask=%b: %v", geo.k, geo.m, mask, err)
			}
			for i := 0; i < geo.k; i++ {
				if !bytes.Equal(shards[i], data[i]) {
					t.Fatalf("k=%d m=%d mask=%b: data shard %d not byte-identical", geo.k, geo.m, mask, i)
				}
			}
		}
	}
}

func TestReconstructDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c, err := New(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	data := testShards(rng, 6, 100<<10) // big enough to actually stripe
	var refParity [][]byte
	for _, workers := range []int{1, 2, 4, 8} {
		parity, err := c.Encode(data, workers)
		if err != nil {
			t.Fatal(err)
		}
		if refParity == nil {
			refParity = parity
		} else {
			for j := range parity {
				if !bytes.Equal(parity[j], refParity[j]) {
					t.Fatalf("workers=%d: parity %d differs", workers, j)
				}
			}
		}
		shards := make([][]byte, 9)
		for i := 1; i < 6; i++ { // drop data shard 0 and parity shard 2
			shards[i] = append([]byte(nil), data[i]...)
		}
		shards[6] = append([]byte(nil), parity[0]...)
		shards[7] = append([]byte(nil), parity[1]...)
		if err := c.Reconstruct(shards, workers); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(shards[0], data[0]) {
			t.Fatalf("workers=%d: reconstruction differs", workers)
		}
	}
}

func TestUpdateParityIncrementalMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c, err := New(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Ragged shard lengths: incremental folds grow the accumulators and
	// implicit zero padding must match one-shot encoding of padded shards.
	lens := []int{100, 900, 1, 0, 333}
	data := make([][]byte, 5)
	for i, l := range lens {
		data[i] = make([]byte, l)
		rng.Read(data[i])
	}
	oneShot, err := c.Encode(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	var inc [][]byte
	for idx := len(data) - 1; idx >= 0; idx-- { // reversed fold order
		if inc, err = c.UpdateParity(inc, idx, data[idx], 3); err != nil {
			t.Fatal(err)
		}
	}
	for j := range oneShot {
		if !bytes.Equal(oneShot[j], inc[j]) {
			t.Fatalf("parity %d: incremental differs from one-shot", j)
		}
	}
}

func TestReconstructErrors(t *testing.T) {
	c, err := New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(present ...int) [][]byte {
		s := make([][]byte, 5)
		for _, i := range present {
			s[i] = make([]byte, 8)
		}
		return s
	}
	if err := c.Reconstruct(mk(0, 1), 1); !errors.Is(err, ErrTooManyMissing) {
		t.Fatalf("2 of 5 present: %v", err)
	}
	if err := c.Reconstruct(make([][]byte, 4), 1); !errors.Is(err, ErrGeometry) {
		t.Fatalf("wrong shard count: %v", err)
	}
	bad := mk(0, 1, 2, 3)
	bad[3] = make([]byte, 9) // truncated/mismatched stripe
	if err := c.Reconstruct(bad, 1); !errors.Is(err, ErrGeometry) {
		t.Fatalf("mismatched lengths: %v", err)
	}
	// Nothing missing is a no-op.
	if err := c.Reconstruct(mk(0, 1, 2, 3, 4), 1); err != nil {
		t.Fatalf("no-op reconstruct: %v", err)
	}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	for _, geo := range []struct{ k, m int }{{0, 1}, {1, 0}, {-1, 2}, {200, 56}, {255, 1}} {
		if _, err := New(geo.k, geo.m); err == nil {
			t.Errorf("New(%d,%d) accepted", geo.k, geo.m)
		}
	}
	if _, err := New(250, 5); err != nil {
		t.Errorf("New(250,5) rejected: %v", err)
	}
}

func TestDecodeMatrixCache(t *testing.T) {
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := testShards(rand.New(rand.NewSource(6)), 4, 64)
	parity, err := c.Encode(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	lose := func() [][]byte {
		s := make([][]byte, 6)
		for i := 1; i < 4; i++ {
			s[i] = append([]byte(nil), data[i]...)
		}
		s[4] = append([]byte(nil), parity[0]...)
		s[5] = append([]byte(nil), parity[1]...)
		return s
	}
	for round := 0; round < 3; round++ {
		s := lose()
		if err := c.Reconstruct(s, 1); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(s[0], data[0]) {
			t.Fatalf("round %d wrong", round)
		}
	}
	if got := len(c.decCache); got != 1 {
		t.Fatalf("decode cache has %d entries after repeated same-pattern loss, want 1", got)
	}
}
