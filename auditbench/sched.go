package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// arrivals draws a Poisson arrival schedule of rate per second over dur,
// as offsets from the start of the run. The count is fixed at rate*dur
// and the times are that many sorted uniform draws: a Poisson process
// given its count, so every seed offers the same load while bursts and
// gaps still vary. The same generator state gives the same schedule.
func arrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	n := int(math.Round(rate * dur.Seconds()))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(dur)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// zipfDraws draws n keys in [0, keys) with Zipf exponent s: key k is
// drawn with weight 1/(k+1)^s, so a few keys take most draws and the rest
// form a long tail. Unlike rand.Zipf it accepts exponents at or below 1.
func zipfDraws(rng *rand.Rand, s float64, keys, n int) []int {
	cdf := make([]float64, keys)
	total := 0.0
	for k := range cdf {
		total += math.Pow(float64(k+1), -s)
		cdf[k] = total
	}
	out := make([]int, n)
	for i := range out {
		out[i] = min(sort.SearchFloat64s(cdf, rng.Float64()*total), keys-1)
	}
	return out
}

// repeatShare is the share of draws whose key appeared earlier in the
// sequence: the reads a cache of unbounded size could serve.
func repeatShare(draws []int) float64 {
	if len(draws) == 0 {
		return 0
	}
	seen := make(map[int]bool, len(draws))
	rep := 0
	for _, k := range draws {
		if seen[k] {
			rep++
		}
		seen[k] = true
	}
	return float64(rep) / float64(len(draws))
}
