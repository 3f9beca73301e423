package main

import (
	"fmt"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/oracle"
	"adaptivefilters/internal/protospec"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/runtime"
)

// audit checks rep against what the first pos events of the sequence
// imply: every tenant applied exactly the events sent to it (conservation),
// and every live answer is within its tolerance of the ground truth — the
// paper's guarantee (Definition 1 for rank tolerance, Definition 3 for
// fraction tolerance), and this is the only place the full stack is held
// to it.
func audit(in *inputs, pos uint64, rep *runtime.Report) []string {
	var problems []string
	for t, d := range in.defs {
		x, y, events := in.state(t, pos)
		tr := rep.Tenants[t]
		if tr.Events != events {
			problems = append(problems, fmt.Sprintf("tenant %s applied %d events, %d were sent", d.name, tr.Events, events))
		}
		if !d.composite() {
			if err := checkAnswer(d.spec, x, y, tr.Answer); err != nil {
				problems = append(problems, fmt.Sprintf("tenant %s: %v", d.name, err))
			}
			continue
		}
		for qi, q := range tr.Queries {
			// Slots past the tenant's own queries are churn queries,
			// evicted in the round that admitted them.
			if !q.Alive || qi >= len(d.queries) {
				continue
			}
			if err := checkAnswer(d.queries[qi].Spec, x, y, q.Answer); err != nil {
				problems = append(problems, fmt.Sprintf("tenant %s query %s: %v", d.name, q.Name, err))
			}
		}
	}
	return problems
}

// checkAnswer validates one answer set against the true values under the
// tolerance its spec promises. Planar queries rank by distance from the
// query point, so they are audited as 1-D queries around 0 over distances.
func checkAnswer(s protospec.Spec, x, y []float64, answer []int) error {
	frac := core.FractionTolerance{EpsPlus: s.EpsPlus, EpsMinus: s.EpsMinus}
	rank := core.RankTolerance{K: s.K, R: s.R}
	center := query.At(s.Q)
	if s.Top {
		center = query.Top()
	}
	if s.Spatial() {
		x, center = dists(x, y, filter.Point{X: s.QX, Y: s.QY}), query.At(0)
	}
	o := oracle.New(x)
	switch s.Protocol {
	case "ft-nrp":
		return o.CheckFractionRange(answer, query.NewRange(s.Lo, s.Hi), frac)
	case "zt-nrp":
		return o.CheckFractionRange(answer, query.NewRange(s.Lo, s.Hi), core.FractionTolerance{})
	case "rtp", "rtp2d":
		return o.CheckRank(answer, center, rank)
	case "ft-rp", "ft-rp2d":
		return o.CheckFractionKNN(answer, query.KNN{Q: center, K: s.K}, frac)
	case "vb-knn":
		return checkValueKNN(x, answer, center, s.K, s.Width)
	}
	return fmt.Errorf("no audit rule for protocol %q", s.Protocol)
}

// checkValueKNN audits the value-based baseline, which promises no rank:
// every stream's table value is within width/2 of the truth, so each of the
// k returned streams lies at most `width` farther from the query point than
// the true k-th nearest stream does.
func checkValueKNN(x []float64, answer []int, q query.Center, k int, width float64) error {
	if len(answer) != k {
		return fmt.Errorf("vb-knn answer has %d members, want %d", len(answer), k)
	}
	d := make([]float64, len(x))
	for i, v := range x {
		d[i] = q.Dist(v)
	}
	byDist := sorted(d)
	limit := byDist[k-1] + width
	for _, id := range answer {
		if d[id] > limit {
			return fmt.Errorf("vb-knn member %d is at distance %g, beyond the k-th true distance %g plus width %g",
				id, d[id], byDist[k-1], width)
		}
	}
	return nil
}
