package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestScheduleRepeatsForSeed(t *testing.T) {
	draw := func(seed int64) ([]time.Duration, []int) {
		rng := rand.New(rand.NewSource(seed))
		return arrivals(rng, 50, 5*time.Second), zipfDraws(rng, zipfS, 4000, 300)
	}
	a1, z1 := draw(7)
	a2, z2 := draw(7)
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(z1, z2) {
		t.Fatal("same seed gave a different schedule or different Zipf draws")
	}
	a3, z3 := draw(8)
	if reflect.DeepEqual(a1, a3) || reflect.DeepEqual(z1, z3) {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestArrivalsRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	got := arrivals(rng, 100, 20*time.Second)
	if n := len(got); n != 2000 {
		t.Fatalf("100/s over 20s gave %d arrivals, want 2000", n)
	}
	// Gaps of a Poisson process are exponential: mean 10ms, and about
	// 1/e of them longer than the mean.
	long := 0
	for i := 1; i < len(got); i++ {
		if got[i]-got[i-1] > 10*time.Millisecond {
			long++
		}
	}
	if share := float64(long) / float64(len(got)-1); share < 0.32 || share > 0.42 {
		t.Fatalf("share of gaps above the mean = %.3f, want about 1/e", share)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}
	if got[len(got)-1] >= 20*time.Second {
		t.Fatal("arrival past the run length")
	}
}

func TestZipfSkewAndRepeatShare(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := zipfDraws(rng, 0.8, 1000, 20000)
	counts := map[int]int{}
	for _, k := range d {
		if k < 0 || k >= 1000 {
			t.Fatalf("draw %d out of range", k)
		}
		counts[k]++
	}
	// Weights 1/(k+1)^0.8 sum to about 15.5 over 1000 keys: rank 0 takes
	// about 6.5% of the draws, and ranks 500-599 together about 4.2%.
	tail := 0
	for k := 500; k < 600; k++ {
		tail += counts[k]
	}
	if share := float64(counts[0]) / float64(len(d)); share < 0.058 || share > 0.071 {
		t.Fatalf("rank 0 took %.4f of the draws, want about 0.065", share)
	}
	if share := float64(tail) / float64(len(d)); share < 0.036 || share > 0.047 {
		t.Fatalf("ranks 500-599 took %.4f of the draws, want about 0.042", share)
	}
	if got := repeatShare([]int{1, 2, 1, 3, 2}); got != 0.4 {
		t.Fatalf("repeatShare = %v, want 0.4", got)
	}
}
