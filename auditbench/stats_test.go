package main

import (
	"testing"
)

func TestTailRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false},
		{16, 0, false},   // the median leaves only 8 above
		{21, 50, true},   // median at rank 10, 10 above
		{99, 50, true},   // p90 leaves 9
		{100, 90, true},  // p90 at rank 89, 10 above
		{199, 90, true},  // p95 leaves 9
		{200, 95, true},  // p95 at rank 189, 10 above
		{999, 95, true},  // p99 leaves 9
		{1000, 99, true}, // p99 at rank 989, 10 above
		{10000, 99.9, true},
	}
	for _, c := range cases {
		s := sample{}
		for i := 0; i < c.n; i++ {
			s.addMS(float64(i))
		}
		p, v, ok := s.tail()
		if ok != c.ok || (ok && p != c.want) {
			t.Errorf("n=%d: tail p%v ok=%v, want p%v ok=%v", c.n, p, ok, c.want, c.ok)
			continue
		}
		if ok && beyond(p, c.n) < minBeyond {
			t.Errorf("n=%d: p%v has %d samples beyond", c.n, p, beyond(p, c.n))
		}
		if ok && v != float64(rank(p, c.n)) {
			t.Errorf("n=%d: p%v = %v, want sample at rank %d", c.n, p, v, rank(p, c.n))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := sample{}
	for _, v := range []float64{5, 1, 4, 2, 3} {
		s.addMS(v)
	}
	if got := s.percentile(50); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
	}
	if got := s.percentile(100); got != 5 {
		t.Fatalf("p100 = %v, want 5", got)
	}
	if got := medianOf([]float64{9, 1, 5}); got != 5 {
		t.Fatalf("medianOf = %v, want 5", got)
	}
	if got := medianOf([]float64{3, 1, 4, 2}); got != 2.5 {
		t.Fatalf("medianOf of four = %v, want 2.5", got)
	}
}
