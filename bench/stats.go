package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// vals: the smallest value with at least p% of the sample at or below
// it. vals need not be sorted; an empty sample yields 0.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the middle value, or the mean of the two middle values.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// perQueryMedian folds lat[pass][query] into one value per query: the
// median of that query's latencies across passes, in microseconds. A
// percentile over the result is a percentile over queries, so one slow
// pass (a GC cycle, a scheduler hiccup) cannot move it.
func perQueryMedian(lat [][]time.Duration) []float64 {
	if len(lat) == 0 {
		return nil
	}
	out := make([]float64, len(lat[0]))
	col := make([]float64, len(lat))
	for q := range out {
		for p := range lat {
			col[p] = float64(lat[p][q]) / 1e3
		}
		out[q] = median(col)
	}
	return out
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vals, n=4) (the exclusive method) computes them,
// which is how the benchmark contract defines a metric's spread. Fewer
// than two values have no spread: both quartiles are the value itself.
func quartiles(vals []float64) (q1, q3 float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return vals[0], vals[0]
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spreadShare is the inter-quartile distance as a share of the median
// (0 when the median is 0).
func spreadShare(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return math.Abs((q3 - q1) / m)
}

func durationsUs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}
