package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {20, 15}, {21, 20}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", v, c.p, got, c.want)
		}
	}
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(ten, 50); got != 5 {
		t.Errorf("p50 of 1..10 = %v, want 5 (nearest rank takes the lower middle)", got)
	}
	if got := percentile(ten, 90); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples must be NaN")
	}
}

func TestTailSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true},  // 10 beyond
		{99, 90, false},  // rank 90, 9 beyond
		{1000, 99, true}, // 10 beyond
		{880, 99, false}, // the geo_mix write count: p99 rests on 8 samples
		{21, 50, true},   // 10 on each side
		{20, 50, false},  // 9 below the median
		{109, 90, true},  // rank 99, 10 beyond
		{10, 50, false},
	} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

// A disturbance that hits less than half of the slices leaves the quiet
// median on the normal path; the median over all samples moves with it.
func TestQuietMedianIgnoresADisturbance(t *testing.T) {
	var samples []timed
	var all []float64
	for sec := 0; sec < 10; sec++ {
		for i := 0; i < 10; i++ {
			v := 10.0
			switch {
			case sec == 3 || sec == 4: // a stall
				v = 500
			case sec == 7: // a busy host: everything a little slower
				v = 12
			case i >= 7: // the slow mode of the normal path
				v = 13
			}
			samples = append(samples, timed{time.Duration(sec)*time.Second + time.Duration(i)*100*time.Millisecond, v})
			all = append(all, v)
		}
	}
	if got := quietMedian(samples, time.Second); got != 10 {
		t.Errorf("quietMedian = %v, want 10", got)
	}
	// 49 samples at 10, 10 at 12, 21 at 13, 20 at 500: rank 50 is a 12.
	if got := percentile(sortedCopy(all), 50); got != 12 {
		t.Fatalf("median over all samples = %v, want 12", got)
	}
	// A slower code path raises every slice and so the result.
	for i := range samples {
		samples[i].v += 2
	}
	if got := quietMedian(samples, time.Second); got != 12 {
		t.Errorf("quietMedian of a run 2 ms slower throughout = %v, want 12", got)
	}
	// Slices without samples are skipped; of the slice medians 4, 6, 8
	// and 9 the nearest-rank 25th percentile is the lowest.
	sparse := []timed{{0, 6}, {5 * time.Second, 8}, {7 * time.Second, 4}, {9 * time.Second, 9}}
	if got := quietMedian(sparse, time.Second); got != 4 {
		t.Errorf("quietMedian of slices {6} {8} {4} {9} = %v, want 4", got)
	}
	if got := quietMedian(sparse[:1], time.Second); got != 6 {
		t.Errorf("quietMedian of one sample = %v, want 6", got)
	}
	if got := sortedValues(sparse); len(got) != 4 || got[0] != 4 || got[3] != 9 {
		t.Errorf("sortedValues = %v", got)
	}
}

func TestExcess(t *testing.T) {
	if got := excessMS(36*time.Millisecond, 12*time.Millisecond); got != 24 {
		t.Errorf("excess of 36 ms over a 12 ms round trip = %v, want 24", got)
	}
	if got := excessMS(1100*time.Microsecond, 1200*time.Microsecond); math.Abs(got+0.1) > 1e-9 {
		t.Errorf("an op faster than the round trip must give a negative excess, got %v", got)
	}
}

// The expected values are what Python prints for
// statistics.quantiles(v, n=4) and statistics.median(v).
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{9.4, 10.4, 9.9, 9.6, 10.1, 9.5, 10.0, 9.7, 10.2, 9.8}
	q1, q3 := quartiles(v)
	if math.Abs(q1-9.575) > 1e-9 || math.Abs(q3-10.125) > 1e-9 {
		t.Errorf("quartiles = %v, %v, want 9.575, 10.125", q1, q3)
	}
	if got := median(v); math.Abs(got-9.85) > 1e-9 {
		t.Errorf("median = %v, want 9.85", got)
	}
	if got, want := spread(v), (10.125-9.575)/9.85; math.Abs(got-want) > 1e-9 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	odd := []float64{3, 1, 2, 5, 4}
	q1, q3 = quartiles(odd)
	if q1 != 1.5 || q3 != 4.5 || median(odd) != 3 {
		t.Errorf("quartiles/median of 1..5 = %v, %v, %v, want 1.5, 4.5, 3", q1, q3, median(odd))
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(10, 11, true); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("11 ms against 10 ms is 10%% worse, got %v", got)
	}
	if got := worseBy(200, 170, false); math.Abs(got-0.15) > 1e-9 {
		t.Errorf("170 ops/s against 200 is 15%% worse, got %v", got)
	}
	if got := worseBy(200, 220, false); got >= 0 {
		t.Errorf("more throughput is not worse, got %v", got)
	}
}
