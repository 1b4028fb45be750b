package workload

import "math/rand"

// Mixture draws from a small set of "hot" values with probability
// HotProb and from a base generator otherwise — the traffic shape of the
// paper's network-monitoring motivation (a few chatty sources over a
// long uniform tail) and the cleanest way to plant known dense values
// for tests and demos.
type Mixture struct {
	hot     []uint64
	hotProb float64
	base    Generator
	rng     *rand.Rand
}

// NewMixture wraps base. hot values should lie in base's domain; hotProb
// is clamped to [0, 1].
func NewMixture(base Generator, hot []uint64, hotProb float64, seed int64) *Mixture {
	return NewMixtureRand(base, hot, hotProb, rngFromSeed(seed))
}

// NewMixtureRand is NewMixture drawing from an injected source.
func NewMixtureRand(base Generator, hot []uint64, hotProb float64, rng *rand.Rand) *Mixture {
	if hotProb < 0 {
		hotProb = 0
	}
	if hotProb > 1 {
		hotProb = 1
	}
	h := make([]uint64, len(hot))
	copy(h, hot)
	return &Mixture{hot: h, hotProb: hotProb, base: base, rng: rng}
}

// Next draws one value.
func (g *Mixture) Next() uint64 {
	if len(g.hot) > 0 && g.rng.Float64() < g.hotProb {
		return g.hot[g.rng.Intn(len(g.hot))]
	}
	return g.base.Next()
}

// Domain returns the base generator's domain.
func (g *Mixture) Domain() uint64 { return g.base.Domain() }
