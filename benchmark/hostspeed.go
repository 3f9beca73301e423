package main

import (
	goruntime "runtime"
	"sync"
	"time"
)

// The sandbox this benchmark runs in is a small VM on a shared host, and
// the host has (at least) two speeds: for minutes at a time every workload
// — CPU time and wall time alike — runs ≈ 1.4× slower than in the minutes
// before, with the same code and the same seed. A dependent chain of ALU
// instructions does not slow down in that state while anything that keeps
// the core's execution ports busy does, which is what a busy hyper-thread
// sibling looks like from inside a guest. No statistic over one run's
// segments can remove it (a slow run's best segment is slower than a fast
// run's worst), so the timing metrics are taken relative to a probe that
// suffers the same way: a fixed, memory-free, port-bound loop timed on both
// cores right before and right after every measured interval.
//
// slowdown = probe time ÷ probeRefNs is how much slower than its reference
// speed the host ran around an interval; a duration measured there is
// divided by it and a rate multiplied by it. The reported figure is thus
// "at the reference host speed", and equals the raw one whenever the host
// runs undisturbed. Both sides of any comparison are scaled by the same
// rule, and the raw figures are printed beside the scaled ones.

// probeIters is the probe loop's trip count: ≈ 1.5 ms per core on the
// reference host, long enough to time to within a few percent and short
// enough that a hundred probes cost a run under half a second.
const probeIters = 1_200_000

// probeRefNs is what one core's probe loop takes on the reference host
// (2-core Xeon @ 2.1 GHz sandbox, Go 1.24) when nothing disturbs it: the
// 10th percentile of ≈ 30 000 probes taken over three hours of runs.
const probeRefNs = 1.6e6

// probeThreads is how many cores are probed at once: the workloads keep two
// cores busy, and each core has its own neighbours.
const probeThreads = 2

var probeSink uint64

// probeLoop is the probe's kernel: four independent multiply-add chains
// and four cheaper ones, no memory traffic — its speed is set by how many
// instructions the core issues per cycle.
func probeLoop(n int) uint64 {
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	e, f, g, h := uint64(5), uint64(6), uint64(7), uint64(8)
	for i := 0; i < n; i++ {
		a = a*6364136223846793005 + 1
		b = b*6364136223846793005 + 3
		c = c*6364136223846793005 + 5
		d = d*6364136223846793005 + 7
		e ^= e << 13
		f ^= f >> 7
		g += a ^ b
		h += c ^ d
	}
	return a + b + c + d + e + f + g + h
}

// probe times the kernel on probeThreads goroutines at once (fewer when the
// process has fewer Ps) and returns the mean of their times in ns. Call it
// only while the stack under test is quiescent.
func probe() float64 {
	threads := min(probeThreads, goruntime.GOMAXPROCS(0))
	took := make([]time.Duration, threads)
	sums := make([]uint64, threads)
	var wg sync.WaitGroup
	for t := range took {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			sums[t] = probeLoop(probeIters)
			took[t] = time.Since(t0)
		}()
	}
	wg.Wait()
	var sum time.Duration
	for t := range took {
		sum += took[t]
		probeSink += sums[t]
	}
	return float64(sum) / float64(threads)
}

// slowdown turns the probes taken before and after an interval into the
// factor by which the host ran slower than its reference speed meanwhile.
func slowdown(before, after float64) float64 {
	return (before + after) / 2 / probeRefNs
}
