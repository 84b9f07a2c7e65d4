package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail is read from, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 50}

// minBeyond is how many samples must lie above a percentile before it is
// reported: a "p99" over 16 samples is really the maximum.
const minBeyond = 10

// sample is a set of latency observations in milliseconds.
type sample struct {
	ms     []float64
	sorted bool
}

func (s *sample) add(d time.Duration) { s.addMS(float64(d) / 1e6) }

func (s *sample) addMS(ms float64) {
	s.ms = append(s.ms, ms)
	s.sorted = false
}

func (s *sample) n() int { return len(s.ms) }

// merge adds o's observations to s.
func (s *sample) merge(o *sample) {
	for _, v := range o.ms {
		s.addMS(v)
	}
}

func (s *sample) sortOnce() {
	if !s.sorted {
		sort.Float64s(s.ms)
		s.sorted = true
	}
}

// rank is the 0-based nearest-rank index of percentile p over n samples.
func rank(p float64, n int) int {
	k := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	return k
}

// beyond counts the samples strictly above the nearest-rank position of p.
func beyond(p float64, n int) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(p, n)
}

// supports reports whether n samples leave at least minBeyond above p.
func supports(p float64, n int) bool { return beyond(p, n) >= minBeyond }

// percentile reads percentile p (nearest rank); NaN when empty.
func (s *sample) percentile(p float64) float64 {
	if len(s.ms) == 0 {
		return math.NaN()
	}
	s.sortOnce()
	return s.ms[rank(p, len(s.ms))]
}

// tail returns the highest ladder percentile the sample supports and its
// value; ok is false when not even the median has minBeyond samples above.
func (s *sample) tail() (p, v float64, ok bool) {
	for _, p := range tailLadder {
		if supports(p, len(s.ms)) {
			return p, s.percentile(p), true
		}
	}
	return 0, math.NaN(), false
}

func (s *sample) mean() float64 {
	if len(s.ms) == 0 {
		return math.NaN()
	}
	var t float64
	for _, v := range s.ms {
		t += v
	}
	return t / float64(len(s.ms))
}

// medianOf is the median of a few values (the repeated set-ups, the
// tracing overhead's pairs); an even count takes the mean of the middle two.
func medianOf(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 0 {
		return (s[m-1] + s[m]) / 2
	}
	return s[m]
}
