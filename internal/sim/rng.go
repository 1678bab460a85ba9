package sim

import "math"

// RNG is a deterministic pseudo-random number generator
// (xoshiro256** by Blackman & Vigna). Each model component owns its own
// stream so that enabling one noise source never perturbs another —
// a property the tail-latency experiments rely on.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from a single 64-bit value via
// splitmix64, as recommended by the xoshiro authors.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// Avoid the all-zero state, which is a fixed point.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0, which no
// scenario reaches: workload's Validate guarantees Nodes >= 2 and a mix
// weight sum in (0, math.MaxInt], the only n a run draws with.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normally distributed value (Box–Muller).
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + float64(stddev*z) // float64(): never fused
}

// LogNormal returns a log-normally distributed value with the given
// parameters of the underlying normal (mu, sigma).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Pareto returns a Pareto(xm, alpha) distributed value: heavy-tailed with
// minimum xm. Used to model episodic memory-system interference spikes.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Bernoulli reports true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.Float64() < p }

// Split derives a new independent generator from this one. The child's
// stream is a deterministic function of the parent's state.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }
