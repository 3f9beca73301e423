package experiment

import (
	"fmt"
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/oracle"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
	"adaptivefilters/internal/workload"
)

// TestProtocolsSatisfyTolerance is the cross-protocol correctness property:
// on randomized small workloads, every protocol keeps its own tolerance
// definition (rank tolerance for the rank-based family, fraction tolerance
// for the others) against the internal/oracle ground truth at every
// delivered event. Table-driven over the protocol constructors; workload
// seeds are derived per (protocol, trial) so failures name an exact
// reproducible cell.
func TestProtocolsSatisfyTolerance(t *testing.T) {
	rng := query.NewRange(400, 600)
	q := query.At(500)
	frac := core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3}

	cases := []struct {
		name  string
		sells oracle.Guarantee
		build func(c server.Host, seed int64) server.Protocol
	}{
		{"no-filter-range",
			oracle.FractionRange(rng, core.FractionTolerance{}),
			func(c server.Host, _ int64) server.Protocol {
				return core.NewNoFilterRange(c, rng)
			}},
		{"no-filter-knn",
			oracle.Rank(q, core.RankTolerance{K: 10}),
			func(c server.Host, _ int64) server.Protocol {
				return core.NewNoFilterKNN(c, query.KNN{Q: q, K: 10})
			}},
		{"zt-nrp",
			oracle.FractionRange(rng, core.FractionTolerance{}),
			func(c server.Host, _ int64) server.Protocol {
				return core.NewZTNRP(c, rng)
			}},
		{"zt-rp",
			oracle.Rank(q, core.RankTolerance{K: 8}),
			func(c server.Host, _ int64) server.Protocol {
				return core.NewZTRP(c, q, 8)
			}},
		{"rtp",
			oracle.Rank(q, core.RankTolerance{K: 6, R: 3}),
			func(c server.Host, _ int64) server.Protocol {
				return core.NewRTP(c, q, core.RankTolerance{K: 6, R: 3})
			}},
		{"rtp-top",
			oracle.Rank(query.Top(), core.RankTolerance{K: 5, R: 2}),
			func(c server.Host, _ int64) server.Protocol {
				return core.NewRTP(c, query.Top(), core.RankTolerance{K: 5, R: 2})
			}},
		{"ft-nrp-boundary",
			oracle.FractionRange(rng, frac),
			func(c server.Host, seed int64) server.Protocol {
				return core.NewFTNRP(c, rng, core.FTNRPConfig{
					Tol: frac, Selection: core.SelectBoundaryNearest, Seed: seed,
				})
			}},
		{"ft-nrp-random",
			oracle.FractionRange(rng, frac),
			func(c server.Host, seed int64) server.Protocol {
				return core.NewFTNRP(c, rng, core.FTNRPConfig{
					Tol: frac, Selection: core.SelectRandom, Seed: seed,
				})
			}},
		{"ft-nrp-asymmetric",
			oracle.FractionRange(rng, core.FractionTolerance{EpsPlus: 0.4, EpsMinus: 0.1}),
			func(c server.Host, seed int64) server.Protocol {
				return core.NewFTNRP(c, rng, core.FTNRPConfig{
					Tol:       core.FractionTolerance{EpsPlus: 0.4, EpsMinus: 0.1},
					Selection: core.SelectBoundaryNearest, Seed: seed,
				})
			}},
		{"ft-rp",
			oracle.FractionKNN(query.KNN{Q: q, K: 10}, frac),
			func(c server.Host, seed int64) server.Protocol {
				cfg := core.DefaultFTRPConfig(frac)
				cfg.Seed = seed
				return core.NewFTRP(c, q, 10, cfg)
			}},
	}

	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for trial := 0; trial < 3; trial++ {
				wseed := sim.DeriveSeed(99, int64(ci), int64(trial))
				for _, sigma := range []float64{20, 60} {
					cfg := workload.SyntheticConfig{
						N: 80, Lo: 0, Hi: 1000, MeanGap: 20, Sigma: sigma,
						Horizon: 2000 * 20 / 80, Seed: wseed,
					}
					w, err := workload.NewSynthetic(cfg)
					if err != nil {
						t.Fatal(err)
					}
					res := Run(Config{
						Workload:    w,
						Check:       oracle.NewAuditor(w.Initial(), tc.sells, 1),
						Seed:        sim.DeriveSeed(wseed, 1),
						NewProtocol: tc.build,
					})
					id := fmt.Sprintf("trial=%d σ=%g wseed=%d", trial, sigma, wseed)
					if res.Checks == 0 {
						t.Fatalf("%s: oracle never ran", id)
					}
					if res.Violations != 0 {
						t.Fatalf("%s: %d/%d checks violated tolerance; first: %s",
							id, res.Violations, res.Checks, res.First)
					}
				}
			}
		})
	}
}
