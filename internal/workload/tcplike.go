package workload

import (
	"fmt"
	"math"

	"adaptivefilters/internal/sim"
)

// TCPLikeConfig is the synthetic substitute for the LBL Internet Traffic
// Archive TCP traces used in the paper's §6.1 (see DESIGN.md §3): a remote
// network-monitoring scenario where each of N subnets is a stream whose
// value is the "number of bytes sent" of its latest observed connection.
//
// Structure preserved from real wide-area traces:
//
//   - Subnet activity is heavy-tailed: arrival rates follow a Pareto
//     popularity distribution, so a few subnets produce most connections.
//   - Subnets have persistent base traffic levels (log-normal across
//     subnets), so the top-k ranking has a mostly stable identity with a
//     volatile boundary — exactly the regime rank tolerance exploits.
//   - Consecutive connection sizes within a subnet are temporally
//     correlated (AR(1) in log space), so values cross filter bounds in
//     bursts rather than independently at every connection.
type TCPLikeConfig struct {
	N        int     // subnets / streams (paper: 800)
	Conns    int     // total connections ≈ total events (paper: 606,497)
	Duration float64 // trace duration in time units (paper: 30 days)
	ParetoA  float64 // subnet popularity shape (smaller = more skewed)
	LogMu    float64 // log-space location of subnet base levels
	SigmaB   float64 // log-space spread *between* subnets
	SigmaW   float64 // log-space spread *within* a subnet
	Phi      float64 // AR(1) coefficient of within-subnet log values [0,1)
	Seed     int64
}

// DefaultTCPLike returns the configuration used by the figure harness:
// 800 subnets and a connection count scaled by the experiment (the paper's
// full 606,497 connections correspond to the harness' Scale ≈ 15).
func DefaultTCPLike(conns int, seed int64) TCPLikeConfig {
	return TCPLikeConfig{
		N: 800, Conns: conns, Duration: 2_592_000, // 30 days in seconds
		ParetoA: 2.5, LogMu: 6.2, SigmaB: 1.0, SigmaW: 0.35, Phi: 0.95,
		Seed: seed,
	}
}

// Validate checks the configuration.
func (c TCPLikeConfig) Validate() error {
	switch {
	case c.N <= 0:
		return fmt.Errorf("workload: tcplike needs N >= 1, got %d", c.N)
	case c.Conns < 0:
		return fmt.Errorf("workload: tcplike needs Conns >= 0, got %d", c.Conns)
	case c.Duration <= 0:
		return fmt.Errorf("workload: tcplike needs Duration > 0, got %g", c.Duration)
	case c.ParetoA <= 0:
		return fmt.Errorf("workload: tcplike needs ParetoA > 0, got %g", c.ParetoA)
	case c.SigmaB < 0 || c.SigmaW < 0:
		return fmt.Errorf("workload: tcplike needs SigmaB, SigmaW >= 0, got %g, %g",
			c.SigmaB, c.SigmaW)
	case c.Phi < 0 || c.Phi >= 1:
		return fmt.Errorf("workload: tcplike needs 0 <= Phi < 1, got %g", c.Phi)
	}
	return nil
}

// TCPLike is the trace-like workload. Initial values are each subnet's
// first connection size (drawn at t0); subsequent connections become update
// events.
type TCPLike struct {
	cfg     TCPLikeConfig
	weights []float64 // normalized per-subnet arrival rates
	levels  []float64 // per-subnet base log level
	x0      []float64 // per-subnet initial AR(1) deviation
	initial []float64
	trace   trace
}

// NewTCPLike builds the workload.
func NewTCPLike(cfg TCPLikeConfig) (*TCPLike, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(cfg.Seed).Split(0x7C9)
	w := &TCPLike{cfg: cfg}
	w.weights = make([]float64, cfg.N)
	total := 0.0
	for i := range w.weights {
		w.weights[i] = rng.Pareto(1, cfg.ParetoA)
		total += w.weights[i]
	}
	for i := range w.weights {
		w.weights[i] /= total
	}
	w.levels = make([]float64, cfg.N)
	w.x0 = make([]float64, cfg.N)
	w.initial = make([]float64, cfg.N)
	for i := range w.levels {
		w.levels[i] = rng.Normal(cfg.LogMu, cfg.SigmaB)
		w.x0[i] = rng.Normal(0, cfg.SigmaW)
		w.initial[i] = w.bytes(w.levels[i], w.x0[i])
	}
	return w, nil
}

// bytes maps a log level plus deviation to a connection size, capped at a
// link-capacity-like ceiling so the tail stays heavy but finite.
func (w *TCPLike) bytes(level, dev float64) float64 {
	return math.Min(math.Exp(level+dev), 1e9)
}

// Name implements Workload.
func (w *TCPLike) Name() string {
	return fmt.Sprintf("tcplike(n=%d,conns=%d)", w.cfg.N, w.cfg.Conns)
}

// N implements Workload.
func (w *TCPLike) N() int { return w.cfg.N }

// Initial implements Workload.
func (w *TCPLike) Initial() []float64 { return append([]float64(nil), w.initial...) }

// Weights exposes the normalized per-subnet arrival rates (tests, tools).
func (w *TCPLike) Weights() []float64 { return append([]float64(nil), w.weights...) }

// Events implements Workload: connection events in time order. The global
// arrival process is Poisson with the configured total count spread over the
// duration; each arrival lands on a subnet drawn by popularity weight, whose
// AR(1) log-value state advances by one step.
func (w *TCPLike) Events() []Event { return w.trace.get(w.generate) }

func (w *TCPLike) generate() []Event {
	rng := sim.NewRNG(w.cfg.Seed).Split(0xE0E0)
	cum := make([]float64, len(w.weights))
	acc := 0.0
	for i, wt := range w.weights {
		acc += wt
		cum[i] = acc
	}
	state := append([]float64(nil), w.x0...)
	// Innovation deviation keeping the stationary variance at SigmaW².
	innov := w.cfg.SigmaW * math.Sqrt(1-w.cfg.Phi*w.cfg.Phi)
	meanGap := w.cfg.Duration / math.Max(float64(w.cfg.Conns), 1)
	evs := make([]Event, w.cfg.Conns)
	t := 0.0
	for i := range evs {
		t += rng.Exp(meanGap)
		u := rng.Float64() * acc
		sub := searchCum(cum, u)
		state[sub] = w.cfg.Phi*state[sub] + rng.Normal(0, innov)
		evs[i] = Event{Time: t, Stream: sub, Value: w.bytes(w.levels[sub], state[sub])}
	}
	return evs
}

// searchCum returns the first index whose cumulative weight exceeds u.
func searchCum(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
