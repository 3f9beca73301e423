package workload_test

import (
	"testing"

	"adaptivefilters/internal/workload"
)

func TestSpatial2DDeterminism(t *testing.T) {
	cfg := workload.DefaultSpatial2D(200, 7)
	cfg.N = 50
	a, err := workload.NewSpatial2D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.NewSpatial2D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.InitialPoints(), b.InitialPoints()
	if len(pa) != 50 {
		t.Fatalf("InitialPoints len = %d", len(pa))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("initial point %d differs: %v vs %v", i, pa[i], pb[i])
		}
	}
	ea, eb := a.Events(), b.Events()
	if len(ea) != len(eb) {
		t.Fatal("traces have different lengths")
	}
	for n := range ea {
		if ea[n] != eb[n] {
			t.Fatalf("event %d differs: %+v vs %+v", n, ea[n], eb[n])
		}
	}
	if len(ea) == 0 {
		t.Fatal("no events generated")
	}
}

func TestSpatial2DStaysInDomain(t *testing.T) {
	cfg := workload.Spatial2DConfig{
		N: 20, Lo: 0, Hi: 100, MeanGap: 1, Sigma: 60, Horizon: 100, Seed: 3,
	}
	w, err := workload.NewSpatial2D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range w.InitialPoints() {
		if p.X < 0 || p.X > 100 || p.Y < 0 || p.Y > 100 {
			t.Fatalf("initial point out of domain: %v", p)
		}
	}
	prev := -1.0
	for _, ev := range w.Events() {
		if ev.Time < prev {
			t.Fatalf("time went backwards: %g after %g", ev.Time, prev)
		}
		prev = ev.Time
		if ev.Value < 0 || ev.Value > 100 || ev.Y < 0 || ev.Y > 100 {
			t.Fatalf("event out of domain: %+v", ev)
		}
		if ev.Stream < 0 || ev.Stream >= 20 {
			t.Fatalf("bad stream id: %+v", ev)
		}
	}
}

func TestSpatial2DValidate(t *testing.T) {
	good := workload.DefaultSpatial2D(100, 1)
	cases := []func(*workload.Spatial2DConfig){
		func(c *workload.Spatial2DConfig) { c.N = 0 },
		func(c *workload.Spatial2DConfig) { c.Hi = c.Lo },
		func(c *workload.Spatial2DConfig) { c.MeanGap = 0 },
		func(c *workload.Spatial2DConfig) { c.Sigma = -1 },
		func(c *workload.Spatial2DConfig) { c.Horizon = 0 },
	}
	for i, mutate := range cases {
		cfg := good
		mutate(&cfg)
		if _, err := workload.NewSpatial2D(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestSyntheticEventsLeaveYZero pins the 1-D/2-D convention the runtime's
// ingest validation relies on: scalar generators never populate Y.
func TestSyntheticEventsLeaveYZero(t *testing.T) {
	w, err := workload.NewSynthetic(workload.SyntheticConfig{
		N: 10, Lo: 0, Hi: 100, MeanGap: 5, Sigma: 10, Horizon: 50, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range w.Events() {
		if ev.Y != 0 {
			t.Fatalf("synthetic event carries Y: %+v", ev)
		}
	}
}
