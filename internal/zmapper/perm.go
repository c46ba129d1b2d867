// Package zmapper implements a Zmap-style stateless Internet scanner
// (Durumeric et al., USENIX Security 2013) with the ICMP timestamp
// extension the paper's authors contributed: each echo request carries its
// destination address and send time in the payload, so RTTs can be computed
// and broadcast responders identified without keeping per-probe state
// (§3.3.1, §5.1).
package zmapper

import "timeouts/internal/xrand"

// Permutation iterates a pseudorandom permutation of [0, n) without
// materializing it, the way Zmap randomizes its scan order: a full-period
// linear congruential generator over the next power of two, cycle-walking
// past values >= n. Randomized order spreads load across target networks
// instead of hammering one /24 at a time.
type Permutation struct {
	n     uint64
	mod   uint64 // power of two >= n
	a, c  uint64
	first uint64
	cur   uint64
	done  bool
	begun bool
}

// NewPermutation creates a permutation of [0, n) seeded deterministically.
func NewPermutation(n int, seed uint64) *Permutation {
	if n <= 0 {
		panic("zmapper: permutation over empty range")
	}
	mod := uint64(1)
	for mod < uint64(n) {
		mod <<= 1
	}
	// Full period over a power-of-two modulus (Hull–Dobell): c odd,
	// a ≡ 1 (mod 4).
	a := uint64(1)
	if mod >= 8 {
		a = xrand.Hash(seed, 1)&(mod-1)&^uint64(3) | 1
		if a == 1 {
			a = 5 // avoid the identity multiplier
		}
	}
	c := xrand.Hash(seed, 2)&(mod-1) | 1
	first := xrand.Hash(seed, 3) & (mod - 1)
	return &Permutation{n: uint64(n), mod: mod, a: a, c: c, first: first}
}

// Next returns the next element, or ok=false when the permutation is
// exhausted.
func (p *Permutation) Next() (int, bool) {
	if p.done {
		return 0, false
	}
	for {
		if !p.begun {
			p.begun = true
			p.cur = p.first
		} else {
			p.cur = (p.a*p.cur + p.c) & (p.mod - 1)
			if p.cur == p.first {
				p.done = true
				return 0, false
			}
		}
		if p.cur < p.n {
			return int(p.cur), true
		}
	}
}

// Seek positions the iterator so the next Next call returns the element at
// emission position pos; Seek(0) rewinds, Seek(n) exhausts. For
// power-of-two n (every default population: blocks*256 with power-of-two
// block counts) it is O(log n) by the closed form; otherwise cycle-walking
// leaves no closed form, and it walks.
func (p *Permutation) Seek(pos int) {
	if pos < 0 || uint64(pos) > p.n {
		panic("zmapper: Seek position outside permutation range")
	}
	p.done = false
	switch {
	case uint64(pos) == p.n:
		p.begun, p.done = true, true
	case pos == 0:
		p.begun = false
	case p.n == p.mod:
		p.begun = true
		p.cur = p.atPow2(uint64(pos) - 1)
	default:
		// Walk-skip: emitting and discarding pos elements leaves cur at
		// emission position pos-1.
		p.begun = false
		for i := 0; i < pos; i++ {
			p.Next()
		}
	}
}

// atPow2 returns the raw orbit element pos steps after first, computed by
// applying f^(2^i) for each set bit of pos, where f(x) = a*x + c (mod 2^k).
// The doubling rule composes affine maps: if g(x) = A*x + C then
// g(g(x)) = A²x + (A+1)C.
func (p *Permutation) atPow2(pos uint64) uint64 {
	cur, am, cm, mask := p.first, p.a, p.c, p.mod-1
	for ; pos != 0; pos >>= 1 {
		if pos&1 != 0 {
			cur = (am*cur + cm) & mask
		}
		cm = (am + 1) * cm & mask
		am = am * am & mask
	}
	return cur
}
