package workload

import (
	"fmt"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/sim"
)

// Spatial2DConfig extends the §6.2 synthetic model to the plane, for the
// planar rank protocols (internal/core's RTP and FT-RP around a
// query.PlanarCenter): N objects start uniformly distributed in
// the square [Lo, Hi]², each updates after exponentially distributed gaps
// (MeanGap), and each update moves both coordinates by independent
// Normal(0, Sigma) steps, reflecting at the square's boundary.
type Spatial2DConfig struct {
	N       int     // number of moving objects
	Lo, Hi  float64 // square domain per axis
	MeanGap float64 // mean inter-update time per object
	Sigma   float64 // random-walk step deviation, per axis
	Horizon float64 // simulation end time; events beyond it are dropped
	Seed    int64   // determinism seed
}

// DefaultSpatial2D returns the 1-D defaults lifted to the plane, scaled to
// the given horizon.
func DefaultSpatial2D(horizon float64, seed int64) Spatial2DConfig {
	return Spatial2DConfig{
		N: 1000, Lo: 0, Hi: 1000, MeanGap: 20, Sigma: 20,
		Horizon: horizon, Seed: seed,
	}
}

// Validate checks the configuration.
func (c Spatial2DConfig) Validate() error {
	switch {
	case c.N <= 0:
		return fmt.Errorf("workload: spatial2d needs N >= 1, got %d", c.N)
	case c.Hi <= c.Lo:
		return fmt.Errorf("workload: spatial2d needs Hi > Lo, got [%g,%g]", c.Lo, c.Hi)
	case c.MeanGap <= 0:
		return fmt.Errorf("workload: spatial2d needs MeanGap > 0, got %g", c.MeanGap)
	case c.Sigma < 0:
		return fmt.Errorf("workload: spatial2d needs Sigma >= 0, got %g", c.Sigma)
	case c.Horizon <= 0:
		return fmt.Errorf("workload: spatial2d needs Horizon > 0, got %g", c.Horizon)
	}
	return nil
}

// Spatial2D is the planar random-walk workload. It is not a Workload — its
// streams carry points, not scalars — but its trace speaks the same Event
// type (Value holds X, Y holds Y), so streamsim and the runtime ingest it
// like any other generator's.
type Spatial2D struct {
	cfg     Spatial2DConfig
	initial []filter.Point
	trace   trace
}

// NewSpatial2D builds the workload (drawing the initial points). It returns
// an error on invalid configuration.
func NewSpatial2D(cfg Spatial2DConfig) (*Spatial2D, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(cfg.Seed).Split(0x5EED)
	init := make([]filter.Point, cfg.N)
	for i := range init {
		// Two draws per object in X-then-Y order; a fixed draw order keeps
		// the point cloud stable if the per-axis generators ever diverge.
		x := rng.Uniform(cfg.Lo, cfg.Hi)
		y := rng.Uniform(cfg.Lo, cfg.Hi)
		init[i] = filter.Point{X: x, Y: y}
	}
	return &Spatial2D{cfg: cfg, initial: init}, nil
}

// Name identifies the workload in reports.
func (s *Spatial2D) Name() string {
	return fmt.Sprintf("spatial2d(n=%d,σ=%g)", s.cfg.N, s.cfg.Sigma)
}

// N returns the number of moving objects.
func (s *Spatial2D) N() int { return s.cfg.N }

// InitialPoints returns the object locations at time t0. The slice is owned
// by the caller.
func (s *Spatial2D) InitialPoints() []filter.Point {
	return append([]filter.Point(nil), s.initial...)
}

// Events returns the merged per-object planar walks, generated on the
// first call and shared read-only as Workload.Events is; each Event
// carries the object's new location as (Value, Y).
func (s *Spatial2D) Events() []Event { return s.trace.get(s.generate) }

func (s *Spatial2D) generate() []Event {
	c := s.cfg
	base := sim.NewRNG(c.Seed)
	evs := make([]Event, 0, walkCap(c.N, c.Horizon, c.MeanGap))
	ends := make([]int, c.N)
	for id, p := range s.initial {
		rng := base.Split(int64(id) + 1)
		for t := rng.Exp(c.MeanGap); t <= c.Horizon; t += rng.Exp(c.MeanGap) {
			p.X = reflect(p.X+rng.Normal(0, c.Sigma), c.Lo, c.Hi)
			p.Y = reflect(p.Y+rng.Normal(0, c.Sigma), c.Lo, c.Hi)
			evs = append(evs, Event{Time: t, Stream: id, Value: p.X, Y: p.Y})
		}
		ends[id] = len(evs)
	}
	return mergeRuns(evs, ends, eventTime)
}
