package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
// It is why the tail metric is p90 and not p99: at the ~630 writes of
// a geo_mix run p99 rests on six samples and swings by tens of percent
// between identical runs.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of sorted: the smallest value with at least p percent of the samples
// at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sliceWidth is the width of the consecutive slices of the measured
// window over which the p50 metrics are taken.
const sliceWidth = time.Second

// timed is one latency sample and how far into the measured window its
// operation was due.
type timed struct {
	at time.Duration
	v  float64
}

// quietMedian is the median latency of the quieter half of the run. It
// cuts the window into consecutive slices of the given width, takes the
// nearest-rank median of each slice that has samples, and returns the
// nearest-rank 25th percentile of those, which is the median of the
// lower half of the slices. Whatever disturbs a run only adds latency:
// a leader change and the backlog behind it, or a neighbour that keeps
// the shared host busy for a while. The disturbed slices land in the
// upper half and the result stays on the path the code sets, where a
// median over all samples climbs the distribution by the share of
// disturbed samples. A slower code path raises every slice, so it
// raises this number by as much as it raises the plain median.
func quietMedian(samples []timed, width time.Duration) float64 {
	bySlice := map[int64][]float64{}
	for _, s := range samples {
		i := int64(s.at / width)
		bySlice[i] = append(bySlice[i], s.v)
	}
	medians := make([]float64, 0, len(bySlice))
	for _, v := range bySlice {
		sort.Float64s(v)
		medians = append(medians, percentile(v, 50))
	}
	sort.Float64s(medians)
	return percentile(medians, 25)
}

// sortedValues returns the samples' values in ascending order.
func sortedValues(samples []timed) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.v
	}
	sort.Float64s(out)
	return out
}

// tailSupported reports whether n samples leave at least minTail of
// them beyond the p-th percentile (the median counts both sides).
func tailSupported(n int, p float64) bool {
	rank := int(math.Ceil(p / 100 * float64(n)))
	beyond := n - rank
	if p == 50 && rank-1 < beyond {
		beyond = rank - 1
	}
	return beyond >= minTail
}

// excessMS is the part of an operation's latency the network model does
// not explain: latency minus the calibrated round trip between the
// client's region and the agreement region, in milliseconds.
func excessMS(latency, rtt time.Duration) float64 {
	return ms(latency - rtt)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// median of an unsorted sample (mean of the middle pair when even),
// the same definition Python's statistics.median uses.
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (exclusive method), so a
// spread printed here equals the one the acceptance check derives.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		frac := pos - float64(j)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(median(v))
}

// worseBy is how much worse b is than a, as a share of a, given the
// metric's direction; negative when b is better.
func worseBy(a, b float64, lowerIsBetter bool) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	if lowerIsBetter {
		return (b - a) / math.Abs(a)
	}
	return (a - b) / math.Abs(a)
}
