package main

import (
	"slices"
	"testing"
)

func TestLatencyPercentiles(t *testing.T) {
	if p50, p99, p999 := latencyPercentiles(nil); p50 != 0 || p99 != 0 || p999 != 0 {
		t.Fatalf("empty input: %v %v %v", p50, p99, p999)
	}
	// 1..n in scrambled order: the nearest-rank percentile of 1..n at p is
	// ⌈p·n⌉. At n = 160 and 1700 rounding p·n instead reads one sample low
	// (158 and 1698), below the share of samples the percentile promises.
	for _, tc := range []struct {
		n              int
		p50, p99, p999 float64
	}{
		{1, 1, 1, 1},
		{1000, 500, 990, 999},
		{160, 80, 159, 160},
		{1700, 850, 1683, 1699},
	} {
		samples := make([]float64, tc.n)
		for i := range samples {
			samples[i] = float64((i*997)%tc.n + 1)
		}
		orig := slices.Clone(samples)
		p50, p99, p999 := latencyPercentiles(samples)
		if p50 != tc.p50 || p99 != tc.p99 || p999 != tc.p999 {
			t.Errorf("n=%d: percentiles = %v %v %v, want %v %v %v", tc.n, p50, p99, p999, tc.p50, tc.p99, tc.p999)
		}
		if !slices.Equal(samples, orig) {
			t.Fatal("latencyPercentiles reordered its input")
		}
	}
}
