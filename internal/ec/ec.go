package ec

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"lcpio/internal/obs"
	"lcpio/internal/par"
)

func init() {
	// Encode/reconstruct durations, for parity-pipeline diagnostics.
	obs.DefineHistogram("lcpio_ec_encode_seconds",
		[]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1})
	obs.DefineHistogram("lcpio_ec_reconstruct_seconds",
		[]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1})
}

const (
	// MaxShards bounds k+m: the Vandermonde evaluation points must be
	// distinct elements of GF(2^8)\{generator overflow}, so at most 255
	// total shards.
	MaxShards = 255
	// maxShardLen caps the stripe length Reconstruct will accept —
	// an allocation guard for adversarial (fuzzed) geometries, far above
	// any real checkpoint chunk.
	maxShardLen = 1 << 30
	// stripeMin is the smallest per-worker byte stripe worth fanning out;
	// below it the scheduling overhead beats the arithmetic.
	stripeMin = 4 << 10
)

// ErrGeometry is returned for shard sets that disagree with the coder's
// geometry (wrong count, mismatched lengths, oversized stripes).
var ErrGeometry = errors.New("ec: invalid shard geometry")

// ErrTooManyMissing is returned when fewer than k shards survive.
var ErrTooManyMissing = errors.New("ec: more erasures than parity shards")

// Coder is a systematic Reed–Solomon coder with k data shards and m parity
// shards. It is immutable after New and safe for concurrent use; decode
// matrices are cached per surviving-shard set under an internal lock.
type Coder struct {
	k, m int
	// parity is the m×k parity sub-matrix P of the systematic generator.
	parity matrix

	mu       sync.Mutex
	decCache map[string][]byte // survivor-set key -> k×k inverted matrix, row-major
}

// New returns a coder for k data and m parity shards (k >= 1, m >= 1,
// k+m <= MaxShards).
func New(k, m int) (*Coder, error) {
	if k < 1 || m < 1 || k+m > MaxShards {
		return nil, fmt.Errorf("%w: k=%d m=%d (need k>=1, m>=1, k+m<=%d)",
			ErrGeometry, k, m, MaxShards)
	}
	p, err := systematicParity(k, m)
	if err != nil {
		return nil, err
	}
	return &Coder{k: k, m: m, parity: p, decCache: make(map[string][]byte)}, nil
}

// UpdateParity folds data shard idx into the m parity accumulators,
// growing each to len(shard) as needed (shorter shards contribute implicit
// zero padding, so fold order and final stripe length never change the
// result). The byte range fans across at most workers goroutines; output
// bytes are identical at any worker count. The grown accumulators are
// returned (pass nil slices on first use).
func (c *Coder) UpdateParity(parity [][]byte, idx int, shard []byte, workers int) ([][]byte, error) {
	if idx < 0 || idx >= c.k {
		return nil, fmt.Errorf("%w: data shard index %d of %d", ErrGeometry, idx, c.k)
	}
	if len(parity) == 0 {
		parity = make([][]byte, c.m)
	}
	if len(parity) != c.m {
		return nil, fmt.Errorf("%w: %d parity accumulators, want %d", ErrGeometry, len(parity), c.m)
	}
	for j := range parity {
		if len(parity[j]) < len(shard) {
			grown := make([]byte, len(shard))
			copy(grown, parity[j])
			parity[j] = grown
		}
	}
	if len(shard) == 0 {
		return parity, nil
	}
	span := obs.Start("ec.encode")
	span.SetWorkload("ec.encode", int64(len(shard)))
	startT := time.Now()
	stripeRun(len(shard), workers, func(lo, hi int) {
		for j := 0; j < c.m; j++ {
			mulAddRow(parity[j], shard, c.parity[j][idx], lo, hi)
		}
	})
	obs.Observe("lcpio_ec_encode_seconds", time.Since(startT).Seconds())
	obs.Add("lcpio_ec_encoded_bytes_total", int64(len(shard)))
	span.End()
	return parity, nil
}

// Encode computes the m parity shards of the k data shards in one shot.
// Shards may have different lengths; each is treated as zero-padded to the
// longest, and every parity shard comes back at that stripe length.
func (c *Coder) Encode(data [][]byte, workers int) ([][]byte, error) {
	if len(data) != c.k {
		return nil, fmt.Errorf("%w: %d data shards, want %d", ErrGeometry, len(data), c.k)
	}
	var parity [][]byte
	var err error
	for idx, shard := range data {
		if parity, err = c.UpdateParity(parity, idx, shard, workers); err != nil {
			return nil, err
		}
	}
	if parity == nil {
		parity = make([][]byte, c.m)
	}
	return parity, nil
}

// Reconstruct rebuilds every missing data shard in place. shards holds the
// k data shards followed by the m parity shards; nil entries are erasures.
// All present shards must share one length (the stripe length); at least k
// must be present. Rebuilt data shards are written back into shards at the
// stripe length — callers trim to the original chunk size themselves.
// Missing parity shards are not rebuilt.
func (c *Coder) Reconstruct(shards [][]byte, workers int) error {
	n := c.k + c.m
	if len(shards) != n {
		return fmt.Errorf("%w: %d shards, want %d", ErrGeometry, len(shards), n)
	}
	shardLen := -1
	present := 0
	for i, s := range shards {
		if s == nil {
			continue
		}
		present++
		if shardLen < 0 {
			shardLen = len(s)
		} else if len(s) != shardLen {
			return fmt.Errorf("%w: shard %d has %d bytes, others %d", ErrGeometry, i, len(s), shardLen)
		}
	}
	if shardLen > maxShardLen {
		return fmt.Errorf("%w: stripe of %d bytes exceeds cap", ErrGeometry, shardLen)
	}
	if present < c.k {
		return fmt.Errorf("%w: %d of %d shards present, need %d", ErrTooManyMissing, present, n, c.k)
	}
	var missing []int
	for i := 0; i < c.k; i++ {
		if shards[i] == nil {
			missing = append(missing, i)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	span := obs.Start("ec.reconstruct")
	span.SetWorkload("ec.reconstruct", int64(len(missing)*shardLen))
	defer span.End()
	startT := time.Now()

	// The first k present shards are the decode sources; preferring low
	// indices keeps data shards (identity rows) in the system wherever
	// possible and makes the cache key canonical.
	sources := make([]int, 0, c.k)
	for i := 0; i < n && len(sources) < c.k; i++ {
		if shards[i] != nil {
			sources = append(sources, i)
		}
	}
	dec, err := c.decodeMatrix(sources)
	if err != nil {
		return err
	}

	for _, d := range missing {
		shards[d] = make([]byte, shardLen)
	}
	if shardLen > 0 {
		stripeRun(shardLen, workers, func(lo, hi int) {
			for _, d := range missing {
				row := dec[d*c.k : (d+1)*c.k]
				for si, src := range sources {
					mulAddRow(shards[d], shards[src], row[si], lo, hi)
				}
			}
		})
	}
	obs.Observe("lcpio_ec_reconstruct_seconds", time.Since(startT).Seconds())
	obs.Add("lcpio_ec_reconstructed_shards_total", int64(len(missing)))
	obs.Add("lcpio_ec_reconstructed_bytes_total", int64(len(missing)*shardLen))
	return nil
}

// decodeMatrix returns the k×k inverse (row-major) of the generator rows
// picked out by sources, cached per source set. Row d of the result gives
// the coefficients rebuilding data shard d from the source shards.
func (c *Coder) decodeMatrix(sources []int) ([]byte, error) {
	key := string(intsToBytes(sources))
	c.mu.Lock()
	dec, ok := c.decCache[key]
	c.mu.Unlock()
	if ok {
		return dec, nil
	}
	a := newMatrix(c.k, c.k)
	for r, src := range sources {
		if src < c.k {
			a[r][src] = 1 // identity row: a data shard is itself
		} else {
			copy(a[r], c.parity[src-c.k])
		}
	}
	inv, err := a.invert()
	if err != nil {
		return nil, err
	}
	dec = make([]byte, c.k*c.k)
	for i := range inv {
		copy(dec[i*c.k:], inv[i])
	}
	c.mu.Lock()
	c.decCache[key] = dec
	c.mu.Unlock()
	return dec, nil
}

func intsToBytes(xs []int) []byte {
	b := make([]byte, len(xs))
	for i, x := range xs {
		b[i] = byte(x)
	}
	return b
}

// stripeRun splits [0,n) into contiguous per-worker stripes and runs fn on
// each through the shared worker-pool primitive. Stripe boundaries depend
// only on n and the worker cap, so outputs are deterministic; tiny ranges
// collapse to one stripe.
func stripeRun(n, workers int, fn func(lo, hi int)) {
	if workers <= 1 || n <= stripeMin {
		fn(0, n)
		return
	}
	stripes := (n + stripeMin - 1) / stripeMin
	if stripes > workers {
		stripes = workers
	}
	size := (n + stripes - 1) / stripes
	par.Run(stripes, workers, func(i int) {
		lo := i * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}
