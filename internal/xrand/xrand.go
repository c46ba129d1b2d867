// Package xrand supplies the deterministic randomness the synthetic Internet
// is built from. Two kinds are provided:
//
//   - Hash-derived values: pure functions of (seed, key...) via SplitMix64.
//     Per-host behavior profiles are drawn this way, so a host's character —
//     cellular wake-up, bufferbloat depth, loss rate — is identical in every
//     scan of the same seeded population. The paper's central stability
//     result (the same ~5% of addresses are slow in every Zmap scan,
//     Figure 7) depends on exactly this property.
//
//   - Stream randomness: a small PCG-style generator for sequences, used
//     where sample-to-sample independence matters (per-probe jitter).
//
// Only standard library code is used; the generators are implemented here.
package xrand

import "math"

// splitmix64 is the canonical SplitMix64 mixing function. It is a bijection
// on uint64 with excellent avalanche behavior, which makes it suitable both
// as a hash of composite keys and as a seed expander.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash mixes a seed and any number of keys into a uniform uint64.
func Hash(seed uint64, keys ...uint64) uint64 {
	return Extend(splitmix64(seed), keys...)
}

// Extend mixes further keys into a hash value. Hash is a left fold over its
// keys, so Extend(Hash(seed, a), k...) == Hash(seed, a, k...): a caller that
// draws many values keyed by the same prefix hashes the prefix once and pays
// one SplitMix64 round per extra key.
func Extend(h uint64, keys ...uint64) uint64 {
	for _, k := range keys {
		h = splitmix64(h ^ k)
	}
	return h
}

// Float01 maps a hash value to [0, 1) with 53 bits of precision.
func Float01(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// HashFloat returns a uniform [0,1) value derived from (seed, keys...).
func HashFloat(seed uint64, keys ...uint64) float64 {
	return Float01(Hash(seed, keys...))
}

// HashIntn returns a uniform integer in [0, n) derived from (seed, keys...).
func HashIntn(n int, seed uint64, keys ...uint64) int {
	if n <= 0 {
		panic("xrand: HashIntn with n <= 0")
	}
	return int(Hash(seed, keys...) % uint64(n))
}

// Rand is a small deterministic generator (xorshift128+ style state advanced
// with SplitMix64 outputs). The zero value is not usable; construct with
// Seeded or FromHash. It is a value, so a short-lived generator per packet
// stays on the stack.
type Rand struct {
	s0, s1 uint64
}

// Seeded returns a generator seeded from (seed, keys...).
func Seeded(seed uint64, keys ...uint64) Rand {
	return FromHash(Hash(seed, keys...))
}

// FromHash returns the generator seeded by an already-mixed hash value:
// Seeded(seed, keys...) == FromHash(Hash(seed, keys...)).
func FromHash(h uint64) Rand {
	return Rand{s0: splitmix64(h), s1: splitmix64(h + 1)}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	// xorshift128+
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 { return Float01(r.Uint64()) }

// Intn returns a uniform integer in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Norm returns a standard normal variate (Box–Muller).
func (r *Rand) Norm() float64 {
	// Avoid log(0) by nudging u1 away from zero.
	u1 := r.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Exp returns an exponential variate with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// Pareto returns a Pareto variate with scale xm and shape alpha. Heavy-tailed
// event magnitudes (DoS response counts, extreme queue depths) are drawn from
// Pareto distributions.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return xm / math.Pow(1-u, 1/alpha)
}
