package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndQuantilesAreExact(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd sample = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even sample = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of empty sample = %v, want 0", got)
	}
	// 17µs and 19µs are distinct answers; a power-of-two histogram would
	// report both as "16–32µs".
	s := sorted([]float64{19, 17, 18, 17, 19, 18, 17})
	if got := quantileSorted(s, 0.5); got != 18 {
		t.Errorf("p50 = %v, want 18", got)
	}
	if got := quantileSorted(s, 1); got != 19 {
		t.Errorf("p100 = %v, want 19", got)
	}
	if got := quantileSorted([]float64{10, 20}, 0.25); got != 12.5 {
		t.Errorf("interpolated quantile = %v, want 12.5", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	s := make([]float64, 999)
	for i := range s {
		s[i] = float64(i)
	}
	if got := percentileIfSupported(s, 99); got != 0 {
		t.Errorf("p99 of 999 samples = %v, want 0 (unsupported)", got)
	}
	if got := percentileIfSupported(append(s, 999), 99); !near(got, 989.01) {
		t.Errorf("p99 of 1000 samples = %v, want 989.01", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3, ok := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !ok || !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v %v, want 2.75 5.5 8.25", q1, q2, q3, ok)
	}
	// statistics.quantiles([3.0, 1.0], n=4) == [0.5, 2.0, 3.5]
	q1, q2, q3, ok = quartiles([]float64{3, 1})
	if !ok || !near(q1, 0.5) || !near(q2, 2) || !near(q3, 3.5) {
		t.Errorf("quartiles of two = %v %v %v %v, want 0.5 2 3.5", q1, q2, q3, ok)
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be defined")
	}
	if s, ok := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); !ok || !near(s, 1) {
		t.Errorf("spread = %v %v, want 1", s, ok)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); !near(got, 4) {
		t.Errorf("geomean = %v, want 4", got)
	}
}

func TestRecorderPoolsExactSamples(t *testing.T) {
	a, b := newRecorder(4), newRecorder(4)
	for _, ns := range []int64{19_600, 19_500} {
		a.add(ns)
	}
	b.add(112_000)
	got := pooledMicros([]*recorder{a, b})
	want := []float64{19.5, 19.6, 112}
	if len(got) != len(want) {
		t.Fatalf("pooled %v, want %v", got, want)
	}
	for i := range want {
		if !near(got[i], want[i]) {
			t.Errorf("pooled[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v, v * 1.01, v * 0.99, v, v * 1.005} }
	if _, r := verdict(lower, steady(100), steady(105)); r != "ok" {
		t.Errorf("5%% slower latency within a 10%% bound: %s", r)
	}
	if _, r := verdict(lower, steady(100), steady(115)); r != "regressed" {
		t.Errorf("15%% slower latency: %s", r)
	}
	if _, r := verdict(higher, steady(100), steady(85)); r != "regressed" {
		t.Errorf("15%% lower throughput: %s", r)
	}
	if _, r := verdict(higher, steady(100), steady(130)); r != "ok" {
		t.Errorf("higher throughput: %s", r)
	}
	noisy := []float64{60, 100, 140, 80, 120}
	if _, r := verdict(lower, steady(100), noisy); r != "unresolved" {
		t.Errorf("spread wider than the bound: %s", r)
	}
}
