// Package retry is the shared capped-exponential-backoff helper behind
// every transient-fault retry loop in the tree: the ckpt writer's medium
// faults, the ckpt restore path's re-reads, and the nfs pipeline's
// retransmit waits all price their simulated delays through one Policy, so
// the backoff arithmetic (and its caps) cannot drift between layers.
package retry

import "math"

// Policy caps retries of a transient operation.
type Policy struct {
	// MaxAttempts bounds total tries (first attempt included).
	MaxAttempts int
	// Base is the first retry's delay in (simulated) seconds; subsequent
	// retries double it up to Max.
	Base float64
	// Max caps the exponential growth. Max == Base gives a constant delay —
	// the shape of an NFS client's fixed retransmit timeout.
	Max float64
}

// Normalized fills zero fields from defaults (which must itself be fully
// populated).
func (p Policy) Normalized(defaults Policy) Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = defaults.MaxAttempts
	}
	if p.Base <= 0 {
		p.Base = defaults.Base
	}
	if p.Max <= 0 {
		p.Max = defaults.Max
	}
	return p
}

// Backoff returns the capped exponential delay before retry `attempt`
// (1-based: the delay after the attempt'th failure).
func (p Policy) Backoff(attempt int) float64 {
	if attempt < 1 {
		attempt = 1
	}
	d := p.Base * math.Pow(2, float64(attempt-1))
	if d > p.Max {
		d = p.Max
	}
	return d
}

// Exhausted reports whether the policy allows no further attempt after
// `attempt` tries.
func (p Policy) Exhausted(attempt int) bool { return attempt >= p.MaxAttempts }
