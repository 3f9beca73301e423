package workload

import (
	"math"
	"sync"
	"testing"
)

func assertTimeOrdered(t *testing.T, evs []Event) {
	t.Helper()
	for i := 1; i < len(evs); i++ {
		if evs[i].Time < evs[i-1].Time {
			t.Fatalf("events out of order at %d: %v < %v", i, evs[i].Time, evs[i-1].Time)
		}
	}
}

func TestSyntheticValidate(t *testing.T) {
	bad := []SyntheticConfig{
		{N: 0, Lo: 0, Hi: 1, MeanGap: 1, Horizon: 1},
		{N: 1, Lo: 1, Hi: 1, MeanGap: 1, Horizon: 1},
		{N: 1, Lo: 0, Hi: 1, MeanGap: 0, Horizon: 1},
		{N: 1, Lo: 0, Hi: 1, MeanGap: 1, Sigma: -1, Horizon: 1},
		{N: 1, Lo: 0, Hi: 1, MeanGap: 1, Horizon: 0},
	}
	for i, cfg := range bad {
		if _, err := NewSynthetic(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestSyntheticInitialDistribution(t *testing.T) {
	cfg := DefaultSynthetic(100, 1)
	w, err := NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.N() != 5000 {
		t.Fatalf("N = %d", w.N())
	}
	init := w.Initial()
	sum := 0.0
	for _, v := range init {
		if v < 0 || v > 1000 {
			t.Fatalf("initial value %v outside [0,1000]", v)
		}
		sum += v
	}
	mean := sum / float64(len(init))
	if math.Abs(mean-500) > 15 {
		t.Fatalf("initial mean = %v, want ≈500 (uniform)", mean)
	}
	// Initial() returns a copy.
	init[0] = -1
	if w.Initial()[0] == -1 {
		t.Fatal("Initial() exposes internal state")
	}
}

func TestSyntheticEventsOrderedAndDeterministic(t *testing.T) {
	cfg := DefaultSynthetic(40, 7)
	cfg.N = 200
	w, _ := NewSynthetic(cfg)
	a := w.Events()
	// A second workload of the same config generates its own trace.
	w2, _ := NewSynthetic(cfg)
	b := w2.Events()
	if len(a) == 0 {
		t.Fatal("no events generated")
	}
	assertTimeOrdered(t, a)
	if len(a) != len(b) {
		t.Fatalf("reruns differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reruns diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestEventsGeneratedOnce holds every generator to the shared-trace
// contract: concurrent first calls all get the one slice.
func TestEventsGeneratedOnce(t *testing.T) {
	syn, _ := NewSynthetic(DefaultSynthetic(10, 1))
	tcp, _ := NewTCPLike(DefaultTCPLike(1000, 1))
	sp, _ := NewSpatial2D(DefaultSpatial2D(10, 1))
	for _, events := range []func() []Event{syn.Events, tcp.Events, sp.Events} {
		var wg sync.WaitGroup
		got := make([][]Event, 8)
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = events()
			}()
		}
		wg.Wait()
		for _, evs := range got {
			if len(evs) == 0 || &evs[0] != &got[0][0] || len(evs) != len(got[0]) {
				t.Fatal("concurrent Events calls returned different traces")
			}
		}
	}
}

func TestSyntheticInterArrivalMean(t *testing.T) {
	cfg := DefaultSynthetic(200, 3)
	cfg.N = 500
	w, _ := NewSynthetic(cfg)
	evs := w.Events()
	// Expected events ≈ N * Horizon / MeanGap = 500*200/20 = 5000.
	want := float64(cfg.N) * cfg.Horizon / cfg.MeanGap
	if math.Abs(float64(len(evs))-want)/want > 0.1 {
		t.Fatalf("event count = %d, want ≈%v", len(evs), want)
	}
	for _, ev := range evs {
		if ev.Time <= 0 || ev.Time > cfg.Horizon {
			t.Fatalf("event time %v outside (0, horizon]", ev.Time)
		}
		if ev.Stream < 0 || ev.Stream >= cfg.N {
			t.Fatalf("event stream %d out of range", ev.Stream)
		}
	}
}

func TestSyntheticValuesStayInDomain(t *testing.T) {
	cfg := DefaultSynthetic(100, 5)
	cfg.N = 100
	cfg.Sigma = 100 // aggressive steps exercise reflection
	w, _ := NewSynthetic(cfg)
	for _, ev := range w.Events() {
		if ev.Value < 0 || ev.Value > 1000 {
			t.Fatalf("value %v escaped [0,1000]", ev.Value)
		}
	}
}

func TestSyntheticUnboundedWalk(t *testing.T) {
	cfg := DefaultSynthetic(2000, 5)
	cfg.N = 20
	cfg.Sigma = 100
	cfg.ClampOff = true
	w, _ := NewSynthetic(cfg)
	escaped := false
	for _, ev := range w.Events() {
		if ev.Value < 0 || ev.Value > 1000 {
			escaped = true
			break
		}
	}
	if !escaped {
		t.Fatal("unbounded walk never left the domain (suspicious)")
	}
}

func TestSyntheticStepDeviation(t *testing.T) {
	cfg := DefaultSynthetic(400, 9)
	cfg.N = 50
	cfg.Sigma = 20
	cfg.ClampOff = true // reflection would bias the measured deviation
	w, _ := NewSynthetic(cfg)
	last := make(map[int]float64)
	for i, v := range w.Initial() {
		last[i] = v
	}
	sumSq, n := 0.0, 0
	for _, ev := range w.Events() {
		d := ev.Value - last[ev.Stream]
		last[ev.Stream] = ev.Value
		sumSq += d * d
		n++
	}
	sd := math.Sqrt(sumSq / float64(n))
	if math.Abs(sd-20) > 1.5 {
		t.Fatalf("step deviation = %v, want ≈20", sd)
	}
}

func TestReflect(t *testing.T) {
	cases := []struct{ v, want float64 }{
		{500, 500}, {0, 0}, {1000, 1000},
		{-10, 10}, {1010, 990}, {-1990, 10}, // −1990 → 1990 → 10

	}
	for _, c := range cases {
		if got := reflect(c.v, 0, 1000); got != c.want {
			t.Fatalf("reflect(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	// Pathological distances terminate and land in-domain.
	if got := reflect(1e12, 0, 1000); got < 0 || got > 1000 {
		t.Fatalf("reflect(1e12) = %v, outside domain", got)
	}
}

func TestTCPLikeValidate(t *testing.T) {
	bad := []TCPLikeConfig{
		{N: 0, Conns: 1, Duration: 1, ParetoA: 1, Phi: 0.5},
		{N: 1, Conns: -1, Duration: 1, ParetoA: 1, Phi: 0.5},
		{N: 1, Conns: 1, Duration: 0, ParetoA: 1, Phi: 0.5},
		{N: 1, Conns: 1, Duration: 1, ParetoA: 0, Phi: 0.5},
		{N: 1, Conns: 1, Duration: 1, ParetoA: 1, Phi: 1.0},
		{N: 1, Conns: 1, Duration: 1, ParetoA: 1, Phi: -0.1},
		{N: 1, Conns: 1, Duration: 1, ParetoA: 1, SigmaB: -1, Phi: 0.5},
	}
	for i, cfg := range bad {
		if _, err := NewTCPLike(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestTCPLikeEventCountAndOrder(t *testing.T) {
	w, err := NewTCPLike(DefaultTCPLike(5000, 1))
	if err != nil {
		t.Fatal(err)
	}
	evs := w.Events()
	if len(evs) != 5000 {
		t.Fatalf("event count = %d, want 5000", len(evs))
	}
	assertTimeOrdered(t, evs)
	for _, ev := range evs {
		if ev.Stream < 0 || ev.Stream >= w.N() {
			t.Fatalf("subnet %d out of range", ev.Stream)
		}
		if ev.Value <= 0 {
			t.Fatalf("connection bytes %v not positive", ev.Value)
		}
	}
}

func TestTCPLikeDeterminism(t *testing.T) {
	w, _ := NewTCPLike(DefaultTCPLike(2000, 3))
	a := w.Events()
	w1, _ := NewTCPLike(DefaultTCPLike(2000, 3))
	b := w1.Events()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reruns diverge at %d", i)
		}
	}
	w2, _ := NewTCPLike(DefaultTCPLike(2000, 4))
	c := w2.Events()
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestTCPLikeActivityIsSkewed(t *testing.T) {
	w, _ := NewTCPLike(DefaultTCPLike(50000, 1))
	counts := make([]int, w.N())
	for _, ev := range w.Events() {
		counts[ev.Stream]++
	}
	// The busiest 10% of subnets should carry well over 10% of events.
	sorted := append([]int(nil), counts...)
	for i := 1; i < len(sorted); i++ { // insertion sort fine for 800
		for j := i; j > 0 && sorted[j] > sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	top := 0
	for i := 0; i < len(sorted)/10; i++ {
		top += sorted[i]
	}
	if frac := float64(top) / 50000; frac < 0.2 {
		t.Fatalf("top-decile activity share = %v, want heavy-tailed (> 0.2)", frac)
	}
}

func TestTCPLikeWeightsNormalized(t *testing.T) {
	w, _ := NewTCPLike(DefaultTCPLike(100, 1))
	sum := 0.0
	for _, wt := range w.Weights() {
		if wt <= 0 {
			t.Fatalf("non-positive weight %v", wt)
		}
		sum += wt
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v, want 1", sum)
	}
}

func TestTCPLikeTemporalCorrelation(t *testing.T) {
	// Consecutive log-values within a subnet must correlate strongly
	// (the AR(1) structure the protocols exploit).
	cfg := DefaultTCPLike(50000, 2)
	w, _ := NewTCPLike(cfg)
	last := make(map[int]float64)
	var xs, ys []float64
	for _, ev := range w.Events() {
		lv := math.Log(ev.Value)
		if prev, ok := last[ev.Stream]; ok {
			xs = append(xs, prev)
			ys = append(ys, lv)
		}
		last[ev.Stream] = lv
	}
	if corr := correlation(xs, ys); corr < 0.8 {
		t.Fatalf("lag-1 log-value correlation = %v, want > 0.8", corr)
	}
}

func correlation(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, syy, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		syy += ys[i] * ys[i]
		sxy += xs[i] * ys[i]
	}
	cov := sxy/n - sx/n*sy/n
	vx := sxx/n - sx/n*sx/n
	vy := syy/n - sy/n*sy/n
	return cov / math.Sqrt(vx*vy)
}

func TestTCPLikeZeroConns(t *testing.T) {
	w, _ := NewTCPLike(DefaultTCPLike(0, 1))
	if evs := w.Events(); len(evs) != 0 {
		t.Fatalf("zero-conn workload produced %d events", len(evs))
	}
}
