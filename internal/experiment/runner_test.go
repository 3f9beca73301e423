package experiment

import (
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/oracle"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/workload"
)

func smallSynthetic(t *testing.T, sigma float64, events int) workload.Workload {
	t.Helper()
	cfg := workload.SyntheticConfig{
		N: 100, Lo: 0, Hi: 1000, MeanGap: 20, Sigma: sigma,
		Horizon: float64(events) * 20 / 100, Seed: 7,
	}
	w, err := workload.NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRunNoFilterCountsEveryEvent(t *testing.T) {
	w := smallSynthetic(t, 20, 2000)
	res := Run(Config{Workload: w, NewProtocol: func(c server.Host, _ int64) server.Protocol {
		return core.NewNoFilterRange(c, query.NewRange(400, 600))
	}})
	if res.Events == 0 {
		t.Fatal("no events delivered")
	}
	if res.MaintMessages != uint64(res.Events) {
		t.Fatalf("no-filter maintenance = %d, events = %d; want equal",
			res.MaintMessages, res.Events)
	}
	if res.InitMessages == 0 {
		t.Fatal("initialization not accounted")
	}
	if res.ByKind["update"] != res.MaintMessages {
		t.Fatalf("byKind = %v", res.ByKind)
	}
}

func TestRunWithOracleChecksFTNRP(t *testing.T) {
	w := smallSynthetic(t, 40, 3000)
	rng := query.NewRange(400, 600)
	tol := core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2}
	res := Run(Config{
		Workload: w,
		Check:    oracle.NewAuditor(w.Initial(), oracle.FractionRange(rng, tol), 1),
		NewProtocol: func(c server.Host, _ int64) server.Protocol {
			return core.NewFTNRP(c, rng, core.FTNRPConfig{
				Tol: tol, Selection: core.SelectBoundaryNearest,
			})
		},
	})
	if res.Checks != res.Events {
		t.Fatalf("checks = %d, events = %d", res.Checks, res.Events)
	}
	if res.Violations != 0 {
		t.Fatalf("%d violations; first: %s", res.Violations, res.First)
	}
	if res.MaxFPlus > tol.EpsPlus || res.MaxFMinus > tol.EpsMinus {
		t.Fatalf("observed fractions %v/%v exceed tolerance", res.MaxFPlus, res.MaxFMinus)
	}
}

func TestRunWithRankCheckRTP(t *testing.T) {
	w := smallSynthetic(t, 30, 2000)
	tol := core.RankTolerance{K: 5, R: 3}
	res := Run(Config{
		Workload: w,
		Check:    oracle.NewAuditor(w.Initial(), oracle.Rank(query.At(500), tol), 1),
		NewProtocol: func(c server.Host, _ int64) server.Protocol {
			return core.NewRTP(c, query.At(500), tol)
		},
	})
	if res.Violations != 0 {
		t.Fatalf("%d violations; first: %s", res.Violations, res.First)
	}
	if len(res.FinalAnswer) != tol.K {
		t.Fatalf("|final answer| = %d, want %d", len(res.FinalAnswer), tol.K)
	}
}

func TestRunWithKNNFractionCheckFTRP(t *testing.T) {
	w := smallSynthetic(t, 30, 2000)
	tol := core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3}
	q := query.KNN{Q: query.At(500), K: 10}
	res := Run(Config{
		Workload: w,
		Check:    oracle.NewAuditor(w.Initial(), oracle.FractionKNN(q, tol), 1),
		NewProtocol: func(c server.Host, _ int64) server.Protocol {
			return core.NewFTRP(c, q.Q, q.K, core.DefaultFTRPConfig(tol))
		},
	})
	if res.Violations != 0 {
		t.Fatalf("%d violations; first: %s", res.Violations, res.First)
	}
}

func TestRunMaxEventsCap(t *testing.T) {
	w := smallSynthetic(t, 20, 5000)
	res := Run(Config{Workload: w, MaxEvents: 100,
		NewProtocol: func(c server.Host, _ int64) server.Protocol {
			return core.NewZTNRP(c, query.NewRange(400, 600))
		}})
	if res.Events != 100 {
		t.Fatalf("events = %d, want capped at 100", res.Events)
	}
}

func TestRunCheckSampling(t *testing.T) {
	w := smallSynthetic(t, 20, 1000)
	rng := query.NewRange(400, 600)
	res := Run(Config{
		Workload: w,
		Check:    oracle.NewAuditor(w.Initial(), oracle.FractionRange(rng, core.FractionTolerance{}), 10),
		NewProtocol: func(c server.Host, _ int64) server.Protocol {
			return core.NewZTNRP(c, rng)
		},
	})
	if res.Checks == 0 || res.Checks > res.Events/10+1 {
		t.Fatalf("checks = %d for %d events at every=10", res.Checks, res.Events)
	}
}

func TestRunPanicsOnMissingConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Run without workload did not panic")
		}
	}()
	Run(Config{})
}

func TestRunDeterminism(t *testing.T) {
	mk := func() Result {
		w := smallSynthetic(t, 20, 2000)
		return Run(Config{Workload: w, NewProtocol: func(c server.Host, _ int64) server.Protocol {
			return core.NewFTNRP(c, query.NewRange(400, 600), core.FTNRPConfig{
				Tol: core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3}, Seed: 5,
			})
		}})
	}
	a, b := mk(), mk()
	if a.MaintMessages != b.MaintMessages || a.Events != b.Events {
		t.Fatalf("non-deterministic runs: %+v vs %+v", a, b)
	}
}
