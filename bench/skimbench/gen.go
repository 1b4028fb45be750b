package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"

	"skimsketch/internal/stream"
)

// zipf draws ranks in [0, n) with P(r) ∝ 1/(r+1)^s by inverse-CDF lookup.
// The benchmark carries its own generator rather than the repository's,
// so that a seed names the same inputs whatever a change does to the
// code under test.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	var sum float64
	for r := range cdf {
		sum += math.Pow(float64(r+1), -s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(rng *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, rng.Float64())
	if i == len(z.cdf) {
		i--
	}
	return i
}

// batch is one request's worth of updates for one tenant: the first half
// goes to stream F, the second half to stream G.
type batch struct {
	tenant string // "" is the default tenant
	groups []stream.Group
	body   []byte // the same updates as a JSON /update body
}

func (b *batch) size() int {
	n := 0
	for _, g := range b.groups {
		n += len(g.Updates)
	}
	return n
}

// pool is the generated input of one run. Requests cycle through it:
// request seq carries batch seq mod len(batches). Because sketches are
// linear, how many times each batch was acknowledged is all the
// reference needs.
type pool struct {
	domain  uint64
	tenants []string
	batches []batch
}

func (p *pool) at(seq int64) *batch { return &p.batches[seq%int64(len(p.batches))] }

// scatter is the odd multiplier that maps zipf ranks to values, so hot
// values are spread over the domain instead of clustered at 0. It is
// fixed, not drawn from the seed: every seed samples one distribution
// with the same hot values, so a seed changes the sample, not where the
// hot values land on a cluster's hash ring.
const scatter = 0x9e3779b97f4a7c15

// genPool draws n batches of size updates over a power-of-two domain.
// Values are zipf(1.0) ranks times scatter, modulo the domain; F and G
// share the mapping and so join on their hot values. With more than one
// tenant, each batch's tenant is drawn from a second zipf(1.0).
func genPool(seed, domain uint64, tenants []string, n, size int) (*pool, error) {
	if domain == 0 || domain&(domain-1) != 0 {
		return nil, fmt.Errorf("domain %d is not a power of two", domain)
	}
	if size < 2 || size%2 != 0 {
		return nil, fmt.Errorf("batch size %d must be even", size)
	}
	rng := rand.New(rand.NewPCG(seed, 0x736b696d62656e63))
	values := newZipf(int(domain), 1.0)
	pick := newZipf(len(tenants), 1.0)
	p := &pool{domain: domain, tenants: tenants, batches: make([]batch, n)}
	for i := range p.batches {
		b := &p.batches[i]
		if len(tenants) > 1 {
			b.tenant = tenants[pick.draw(rng)]
		}
		b.groups = []stream.Group{{Name: "F"}, {Name: "G"}}
		for g := range b.groups {
			ups := make([]stream.Update, size/2)
			for j := range ups {
				ups[j] = stream.Update{Value: (uint64(values.draw(rng)) * scatter) & (domain - 1), Weight: 1}
			}
			b.groups[g].Updates = ups
		}
		b.body = jsonBody(b.groups)
	}
	return p, nil
}

// jsonBody encodes groups as a /update request body of bare inserts.
func jsonBody(groups []stream.Group) []byte {
	out := []byte{'['}
	for _, g := range groups {
		for _, u := range g.Updates {
			if len(out) > 1 {
				out = append(out, ',')
			}
			out = append(out, `{"stream":"`...)
			out = append(out, g.Name...)
			out = append(out, `","value":`...)
			out = strconv.AppendUint(out, u.Value, 10)
			out = append(out, '}')
		}
	}
	return append(out, ']')
}
