package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets is the depth of the exponential bucket ladder: bucket i holds
// observations at or below 1µs·2^i, covering 1µs up to ~33.5s, with one
// overflow bucket above the ladder. Latencies on the open↔hidden link
// range from sub-µs (in-process) to seconds (retry storms), so a factor-2
// ladder keeps every regime resolvable at fixed memory cost.
const numBuckets = 26

// Histogram accumulates a latency distribution in exponential buckets.
// Observations are lock-free; snapshots are approximate under concurrent
// writes (each counter is individually consistent), which is the usual
// contract for serving metrics.
type Histogram struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	minNs   atomic.Int64 // 0 means "unset"; durations are clamped to ≥1ns
	maxNs   atomic.Int64
	buckets [numBuckets + 1]atomic.Int64
}

// bucketIndex returns the ladder slot for d: the smallest i with
// 1µs·2^i ≥ d, or the overflow slot past the ladder.
func bucketIndex(d time.Duration) int {
	if d <= time.Microsecond {
		return 0
	}
	us := uint64((d + 999) / 1000) // ceil to µs
	i := bits.Len64(us - 1)        // smallest i with 2^i ≥ us
	if i > numBuckets {
		return numBuckets
	}
	return i
}

// BucketBound returns bucket i's inclusive upper bound, or a negative
// duration for the overflow bucket.
func BucketBound(i int) time.Duration {
	if i >= numBuckets {
		return -1
	}
	return time.Microsecond << i
}

// Observe records one duration. Non-positive durations count as 1ns so
// ultra-fast in-process calls still register.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d <= 0 {
		d = 1
	}
	ns := int64(d)
	h.count.Add(1)
	h.sumNs.Add(ns)
	h.buckets[bucketIndex(d)].Add(1)
	// Lower the minimum (0 is unset) and raise the maximum until ns is
	// inside them or a compare-and-swap puts it there.
	for cur := h.minNs.Load(); (cur == 0 || cur > ns) && !h.minNs.CompareAndSwap(cur, ns); cur = h.minNs.Load() {
	}
	for cur := h.maxNs.Load(); cur < ns && !h.maxNs.CompareAndSwap(cur, ns); cur = h.maxNs.Load() {
	}
}

// HistBucket is one non-empty histogram bucket in a snapshot. LeNs is the
// inclusive upper bound in nanoseconds; -1 marks the overflow bucket.
type HistBucket struct {
	LeNs  int64 `json:"le_ns"`
	Count int64 `json:"count"`
}

// HistSnapshot is a point-in-time view of a histogram, the form exported
// on /metrics and in `slicehide run -stats json`.
type HistSnapshot struct {
	Count int64 `json:"count"`
	SumNs int64 `json:"sum_ns"`
	MinNs int64 `json:"min_ns"`
	MaxNs int64 `json:"max_ns"`
	P50Ns int64 `json:"p50_ns"`
	P99Ns int64 `json:"p99_ns"`
	// P999Ns is the p99.9 estimate — the SLO tail a serving system is
	// judged by once p99 stops moving. Below 1000 observations it equals
	// the observed maximum (the ceil-rank quantile of a small population
	// is its last sample), which is the honest small-sample answer.
	P999Ns  int64        `json:"p999_ns"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot captures the histogram's current state, with non-empty buckets
// and estimated quantiles.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.SumNs = h.sumNs.Load()
	s.MinNs = h.minNs.Load()
	s.MaxNs = h.maxNs.Load()
	var counts [numBuckets + 1]int64
	for i := range h.buckets {
		if c := h.buckets[i].Load(); c > 0 {
			counts[i] = c
			s.Buckets = append(s.Buckets, HistBucket{LeNs: int64(BucketBound(i)), Count: c})
		}
	}
	s.P50Ns = quantileNs(counts, s.Count, s.MaxNs, 0.50)
	s.P99Ns = quantileNs(counts, s.Count, s.MaxNs, 0.99)
	s.P999Ns = quantileNs(counts, s.Count, s.MaxNs, 0.999)
	return s
}

// quantileNs estimates the q-quantile as the upper bound of the first
// bucket whose cumulative count reaches q·total, clamped to the observed
// maximum (the overflow bucket has no finite bound of its own).
func quantileNs(counts [numBuckets + 1]int64, total, maxNs int64, q float64) int64 {
	if total == 0 {
		return 0
	}
	// The q-quantile is the smallest rank covering at least q of the
	// population — round up, or a p99 over 3 samples would target rank 2.
	target := max(int64(math.Ceil(q*float64(total))), 1)
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= target {
			bound := BucketBound(i)
			if bound < 0 || int64(bound) > maxNs {
				return maxNs
			}
			return int64(bound)
		}
	}
	return maxNs
}
