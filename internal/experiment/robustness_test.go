package experiment

import (
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/oracle"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
)

// The paper's correctness requirements assume a reliable channel. These
// tests inject uplink loss and verify (a) the assumption is load-bearing —
// answers silently drift out of tolerance — and (b) the protocols stay
// within tolerance at zero loss on the very same workload, so the failures
// are attributable to the injected fault alone.

func TestLossFreeRunIsCorrect(t *testing.T) {
	w := smallSynthetic(t, 40, 4000)
	rng := query.NewRange(400, 600)
	res := Run(Config{
		Workload: w,
		Check:    oracle.NewAuditor(w.Initial(), oracle.FractionRange(rng, core.FractionTolerance{}), 1),
		NewProtocol: func(c server.Host, _ int64) server.Protocol {
			return core.NewZTNRP(c, rng)
		},
	})
	if res.Violations != 0 {
		t.Fatalf("loss-free run violated tolerance: %s", res.First)
	}
}

func TestUplinkLossBreaksZeroTolerance(t *testing.T) {
	w := smallSynthetic(t, 40, 4000)
	rng := query.NewRange(400, 600)
	var cl *server.Cluster
	res := Run(Config{
		Workload:   w,
		UplinkLoss: 0.2,
		Seed:       7,
		Check:      oracle.NewAuditor(w.Initial(), oracle.FractionRange(rng, core.FractionTolerance{}), 1),
		NewProtocol: func(c server.Host, _ int64) server.Protocol {
			cl = c.(*server.Cluster)
			return core.NewZTNRP(c, rng)
		},
	})
	if cl.DroppedUpdates() == 0 {
		t.Fatal("fault injection inactive")
	}
	if res.Violations == 0 {
		t.Fatal("20% uplink loss produced zero violations of zero tolerance; " +
			"the reliability assumption should be load-bearing")
	}
}

func TestFractionToleranceAbsorbsSomeLoss(t *testing.T) {
	// A small loss rate costs far fewer tolerance violations under a loose
	// fraction tolerance than under zero tolerance — tolerance buys real
	// robustness headroom even though the protocol was not designed for it.
	w := smallSynthetic(t, 40, 4000)
	rng := query.NewRange(400, 600)
	run := func(tol core.FractionTolerance) int {
		res := Run(Config{
			Workload:   w,
			UplinkLoss: 0.05,
			Seed:       3,
			Check:      oracle.NewAuditor(w.Initial(), oracle.FractionRange(rng, tol), 1),
			NewProtocol: func(c server.Host, _ int64) server.Protocol {
				return core.NewFTNRP(c, rng, core.FTNRPConfig{
					Tol: tol, Selection: core.SelectBoundaryNearest,
				})
			},
		})
		return res.Violations
	}
	strict := run(core.FractionTolerance{})
	loose := run(core.FractionTolerance{EpsPlus: 0.4, EpsMinus: 0.4})
	if loose >= strict {
		t.Fatalf("loose tolerance violations (%d) not below zero-tolerance (%d)",
			loose, strict)
	}
}

func TestLossIsReproducible(t *testing.T) {
	mk := func() (uint64, int) {
		w := smallSynthetic(t, 40, 3000)
		rng := query.NewRange(400, 600)
		var cl *server.Cluster
		res := Run(Config{
			Workload:   w,
			UplinkLoss: 0.1,
			Seed:       5,
			Check:      oracle.NewAuditor(w.Initial(), oracle.FractionRange(rng, core.FractionTolerance{}), 1),
			NewProtocol: func(c server.Host, _ int64) server.Protocol {
				cl = c.(*server.Cluster)
				return core.NewZTNRP(c, rng)
			},
		})
		return cl.DroppedUpdates(), res.Violations
	}
	d1, v1 := mk()
	d2, v2 := mk()
	if d1 != d2 || v1 != v2 {
		t.Fatalf("loss process not reproducible: (%d,%d) vs (%d,%d)", d1, v1, d2, v2)
	}
}
