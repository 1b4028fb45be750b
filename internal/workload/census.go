package workload

import (
	"math"
	"math/rand"

	"skimsketch/internal/stream"
)

// Census-like synthetic data. The paper's real-life experiment joins the
// "weekly wage" and "weekly wage overtime" attributes of the September
// 2002 Current Population Survey (159,434 records, domain size 1024 for
// each attribute). That file is not redistributable, so CensusPair
// generates a synthetic stand-in with the same record count and domain
// size and the qualitative features the experiment depends on:
//
//   - wages follow a heavily-skewed distribution with a large spike at 0
//     (non-workers) and a log-normal body clipped to the domain, so a few
//     values are very dense while a long tail is sparse;
//   - overtime wages are 0 for most records and otherwise a small,
//     noisy fraction of the wage, so the two attributes share dense values
//     near the bottom of the range and the join is dominated by a few
//     frequency spikes — exactly the regime that separates skimmed
//     sketches from basic AGMS.

// CensusDefaultRecords matches the paper's September 2002 record count.
const CensusDefaultRecords = 159434

// CensusDomain matches the paper's per-attribute domain size.
const CensusDomain = 1024

// CensusPair returns the two census-like update streams (wage, overtime)
// with n records each over domain [0, CensusDomain).
func CensusPair(n int, seed int64) (wage, overtime []stream.Update) {
	rng := rngFromSeed(seed)
	wage = make([]stream.Update, n)
	overtime = make([]stream.Update, n)
	for i := 0; i < n; i++ {
		w := censusWage(rng)
		wage[i] = stream.Insert(w)
		overtime[i] = stream.Insert(censusOvertime(rng, w))
	}
	return wage, overtime
}

// censusWage draws one weekly-wage bucket.
func censusWage(rng *rand.Rand) uint64 {
	if rng.Float64() < 0.18 { // spike of zero earners
		return 0
	}
	// Log-normal body: median near bucket 110, clipped into the domain.
	v := math.Exp(rng.NormFloat64()*0.8 + math.Log(110))
	b := uint64(v)
	if b >= CensusDomain {
		b = CensusDomain - 1
	}
	return b
}

// censusOvertime draws one weekly-overtime bucket given the wage bucket.
func censusOvertime(rng *rand.Rand, wage uint64) uint64 {
	if rng.Float64() < 0.85 { // most records report no overtime
		return 0
	}
	frac := 0.05 + 0.3*rng.Float64()
	b := uint64(frac * float64(wage))
	if b >= CensusDomain {
		b = CensusDomain - 1
	}
	return b
}
