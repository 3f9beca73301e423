package workload

import (
	"fmt"

	"adaptivefilters/internal/sim"
)

// SyntheticConfig is the paper's §6.2 synthetic data model: N streams whose
// values start uniformly distributed in [Lo, Hi]; each stream updates after
// exponentially distributed gaps (MeanGap) and each update moves the value
// by a Normal(0, Sigma) step. Values reflect at the domain boundary so the
// population stays inside [Lo, Hi] over long runs.
type SyntheticConfig struct {
	N        int     // number of streams (paper: 5000)
	Lo, Hi   float64 // value domain (paper: [0, 1000])
	MeanGap  float64 // mean inter-update time per stream (paper: 20)
	Sigma    float64 // random-walk step deviation (paper: 20..100)
	Horizon  float64 // simulation end time; events beyond it are dropped
	Seed     int64   // determinism seed
	ClampOff bool    // disable boundary reflection (unbounded walk)
}

// DefaultSynthetic returns the paper's parameters scaled to the given
// horizon.
func DefaultSynthetic(horizon float64, seed int64) SyntheticConfig {
	return SyntheticConfig{
		N: 5000, Lo: 0, Hi: 1000, MeanGap: 20, Sigma: 20,
		Horizon: horizon, Seed: seed,
	}
}

// Validate checks the configuration.
func (c SyntheticConfig) Validate() error {
	switch {
	case c.N <= 0:
		return fmt.Errorf("workload: synthetic needs N >= 1, got %d", c.N)
	case c.Hi <= c.Lo:
		return fmt.Errorf("workload: synthetic needs Hi > Lo, got [%g,%g]", c.Lo, c.Hi)
	case c.MeanGap <= 0:
		return fmt.Errorf("workload: synthetic needs MeanGap > 0, got %g", c.MeanGap)
	case c.Sigma < 0:
		return fmt.Errorf("workload: synthetic needs Sigma >= 0, got %g", c.Sigma)
	case c.Horizon <= 0:
		return fmt.Errorf("workload: synthetic needs Horizon > 0, got %g", c.Horizon)
	}
	return nil
}

// Synthetic is the random-walk workload.
type Synthetic struct {
	cfg     SyntheticConfig
	initial []float64
	trace   trace
}

// NewSynthetic builds the workload (drawing the initial values). It returns
// an error on invalid configuration.
func NewSynthetic(cfg SyntheticConfig) (*Synthetic, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(cfg.Seed).Split(0x5EED)
	init := make([]float64, cfg.N)
	for i := range init {
		init[i] = rng.Uniform(cfg.Lo, cfg.Hi)
	}
	return &Synthetic{cfg: cfg, initial: init}, nil
}

// Name implements Workload.
func (s *Synthetic) Name() string {
	return fmt.Sprintf("synthetic(n=%d,σ=%g)", s.cfg.N, s.cfg.Sigma)
}

// N implements Workload.
func (s *Synthetic) N() int { return s.cfg.N }

// Initial implements Workload.
func (s *Synthetic) Initial() []float64 { return append([]float64(nil), s.initial...) }

// Events implements Workload: the per-stream random walks, each drawn from
// its own split of the seed, merged on time.
func (s *Synthetic) Events() []Event { return s.trace.get(s.generate) }

func (s *Synthetic) generate() []Event {
	c := s.cfg
	base := sim.NewRNG(c.Seed)
	evs := make([]Event, 0, walkCap(c.N, c.Horizon, c.MeanGap))
	ends := make([]int, c.N)
	for id, v := range s.initial {
		rng := base.Split(int64(id) + 1)
		for t := rng.Exp(c.MeanGap); t <= c.Horizon; t += rng.Exp(c.MeanGap) {
			v += rng.Normal(0, c.Sigma)
			if !c.ClampOff {
				v = reflect(v, c.Lo, c.Hi)
			}
			evs = append(evs, Event{Time: t, Stream: id, Value: v})
		}
		ends[id] = len(evs)
	}
	return mergeRuns(evs, ends, eventTime)
}

// reflect folds v back into [lo, hi] by mirroring at the boundaries.
func reflect(v, lo, hi float64) float64 {
	span := hi - lo
	for v < lo || v > hi {
		if v < lo {
			v = lo + (lo - v)
		}
		if v > hi {
			v = hi - (v - hi)
		}
		// Pathologically large steps shrink toward the domain each loop;
		// bound the work for steps many times the span.
		if v < lo-10*span {
			v = lo
		}
		if v > hi+10*span {
			v = hi
		}
	}
	return v
}
