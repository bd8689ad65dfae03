package sim

import "math/rand/v2"

// RNG is a deterministic random stream. Each independent simulation component
// should own a stream derived from the experiment seed so that changing one
// component's draw count never perturbs another component's sequence.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a stream seeded from (seed, stream). Distinct stream numbers
// with the same seed yield statistically independent sequences.
func NewRNG(seed, stream uint64) *RNG {
	// splitmix the pair so adjacent (seed, stream) values diverge fully.
	return &RNG{r: rand.New(rand.NewPCG(splitmix(seed), splitmix(seed^(stream*0x9e3779b97f4a7c15+1))))}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform draw in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Uniform returns a uniform draw in [lo,hi).
func (g *RNG) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*g.r.Float64() }

// UniformTime returns a uniform virtual duration in [lo,hi).
func (g *RNG) UniformTime(lo, hi Time) Time {
	if hi <= lo {
		return lo
	}
	return lo + Time(g.r.Int64N(int64(hi-lo)))
}

// IntN returns a uniform draw in [0,n).
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Uint64 returns a uniform 64-bit draw.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Bernoulli reports true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.r.Float64() < p }
