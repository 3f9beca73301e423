package experiment

import (
	"fmt"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/oracle"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
)

// Figure1 quantifies the paper's Figure 1 motivation: value-based tolerance
// is the wrong knob for an entity-based query. A continuous top-k query is
// answered (a) with Olston-style value-band filters of width ε_v — the
// baseline the introduction criticizes — and (b) with RTP's rank-based
// tolerance. For each setting it reports maintenance messages, the worst
// true rank ever returned, and the fraction of sampled instants whose
// answer violated the rank tolerance k+r.
//
// The paper's argument shows up as a dilemma in the value-based rows: small
// ε_v keeps ranks tight but forfeits the message savings, large ε_v saves
// messages but returns streams that "rank far from the true maximum"; RTP
// gets the savings *with* the rank guarantee.
func Figure1(o Options) *Table {
	conns := o.scaled(40_000)
	w := tcpWorkload(o, 800, conns)
	const (
		k = 20
		r = 2
	)
	tol := core.RankTolerance{K: k, R: r}
	widths := []float64{0, 100, 1_000, 10_000, 100_000}
	slacks := []int{r, 5}

	// Every row is one Run held to an explicit rank guarantee, sampled every
	// few events whether or not Options.Check is set: for the value rows that
	// is a promise VB-kNN never made, and measuring how badly it misses it is
	// the figure.
	const sampleEvery = 10
	cell := func(row int, tol core.RankTolerance, build func(server.Host, int64) server.Protocol) Cell {
		return Cell{Figure: 1, Row: row, Col: 0, Run: func(seed int64) CellOut {
			aud := oracle.NewAuditor(w.Initial(), oracle.Rank(query.Top(), tol), sampleEvery)
			return CellOut{Value: Run(Config{Workload: w, Seed: seed, Check: aud, NewProtocol: build})}
		}}
	}
	cells := make([]Cell, 0, len(widths)+len(slacks))
	for _, width := range widths {
		cells = append(cells, cell(len(cells), tol, func(c server.Host, _ int64) server.Protocol {
			return core.NewVBKNN(c, query.TopK(k), width)
		}))
	}
	for _, rr := range slacks {
		rtol := core.RankTolerance{K: k, R: rr}
		cells = append(cells, cell(len(cells), rtol, func(c server.Host, _ int64) server.Protocol {
			return core.NewRTP(c, query.Top(), rtol)
		}))
	}
	out := RunCells(o, cells)

	t := NewTable(
		"Figure 1 (motivation) — value-based vs rank-based tolerance (top-k, TCP-like)",
		"method", "maint msgs", "worst rank", "rank>k+r (% of checks)")
	t.AddNote("k=%d, rank tolerance ε=k+r=%d; workload %s", k, tol.Eps(), w.Name())
	// Comma-ok: on context cancellation unstarted cells hold nil Values and
	// the table is abandoned by the caller; don't panic assembling it.
	row := func(i int, method string) {
		res, _ := out[i].Value.(Result)
		violPct := 0.0
		if res.Checks > 0 {
			violPct = 100 * float64(res.Violations) / float64(res.Checks)
		}
		t.AddRow(method, res.MaintMessages, res.WorstRank, fmt.Sprintf("%.1f", violPct))
	}
	for i, width := range widths {
		row(i, fmt.Sprintf("value ε_v=%g", width))
	}
	for i, rr := range slacks {
		row(len(widths)+i, fmt.Sprintf("rank r=%d (RTP)", rr))
	}
	return t
}
