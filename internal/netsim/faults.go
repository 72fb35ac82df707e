package netsim

// Injector is a deterministic seeded fault source shared by the transient-
// fault models layered over this package's links: the nfs transfer pipeline
// (dropped RPCs, short writes) and the checkpoint store's
// storage medium (transient write errors, read corruption). Every decision
// is drawn from one xorshift128+ stream, so a given seed reproduces the
// exact same fault schedule — which is what makes retry paths testable.
//
// An Injector is NOT safe for concurrent use; callers that fan out must
// either serialize access or give each goroutine its own seed.
type Injector struct {
	s0, s1 uint64
	draws  int64
}

// NewInjector returns an injector seeded with seed (0 picks a fixed
// non-zero default so the zero value still produces a usable stream).
func NewInjector(seed int64) *Injector {
	s := uint64(seed)
	if s == 0 {
		s = 0xC0FFEE12345678
	}
	inj := &Injector{s0: s, s1: s ^ 0x9E3779B97F4A7C15}
	for i := 0; i < 8; i++ {
		inj.next()
	}
	inj.draws = 0 // warm-up does not count as consumed randomness
	return inj
}

func (i *Injector) next() uint64 {
	a, b := i.s0, i.s1
	i.s0 = b
	a ^= a << 23
	a ^= a >> 17
	a ^= b ^ (b >> 26)
	i.s1 = a
	i.draws++
	return a + b
}

// Uniform draws the next value in [0,1).
func (i *Injector) Uniform() float64 {
	return float64(i.next()>>11) / (1 << 53)
}

// Hit reports whether a fault with probability p fires on this draw.
// p <= 0 never fires (and consumes no randomness), p >= 1 always fires.
func (i *Injector) Hit(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		i.next()
		return true
	}
	return i.Uniform() < p
}

// Draws reports how many random values have been consumed — a cheap way
// for tests to assert two schedules diverged or stayed in lockstep.
func (i *Injector) Draws() int64 { return i.draws }
