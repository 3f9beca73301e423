package experiment

import (
	"context"
	"fmt"
	"math"
	"sort"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/oracle"
	"adaptivefilters/internal/protospec"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/workload"
)

// Options tunes the figure harness.
type Options struct {
	// Scale multiplies event counts. 1.0 reproduces the default workload
	// sizes documented in DESIGN.md; the paper's full TCP trace volume
	// (606,497 connections) corresponds to Scale ≈ 15 for the TCP figures.
	Scale float64
	// Seed is the base determinism seed. Each cell of a figure derives its
	// own independent seed from it (see Cell.Seed), so tables are
	// byte-identical for every Workers setting.
	Seed int64
	// Check enables oracle validation during runs (slower; the per-figure
	// tests exercise it at small scale).
	Check bool
	// CheckEvery samples oracle checks (default 1 when Check is set).
	CheckEvery int
	// Workers bounds the cell engine's worker pool: 0 or 1 runs cells
	// sequentially in index order, n > 1 uses a pool of n goroutines, and
	// any negative value uses runtime.GOMAXPROCS(0).
	Workers int
	// Ctx optionally cancels a regeneration in flight (nil = never).
	Ctx context.Context
}

func (o Options) scaled(base int) int {
	s := o.Scale
	if s <= 0 {
		s = 1
	}
	n := int(math.Round(float64(base) * s))
	if n < 100 {
		n = 100
	}
	return n
}

// specCell is the figure cell that serves one declarative spec over w and
// reports its maintenance messages. An audited cell runs, under
// Options.Check, against the guarantee the same spec sells, sampled every
// CheckEvery events.
func (o Options) specCell(fig, row, col int, w workload.Workload, s protospec.Spec, audited bool) Cell {
	return Cell{Figure: fig, Row: row, Col: col, Run: func(seed int64) CellOut {
		build, err := s.Factory()
		must(err)
		cfg := Config{Workload: w, Seed: seed, NewProtocol: build}
		if audited && o.Check {
			g, err := s.Guarantee()
			must(err)
			cfg.Check = oracle.NewAuditor(w.Initial(), g, max(o.CheckEvery, 1))
		}
		res := Run(cfg)
		return CellOut{Value: res.MaintMessages, Violations: res.Violations}
	}}
}

// ftnrp is the figures' FT-NRP over the range [400,600] (boundary-nearest
// selection unless the caller says otherwise).
func ftnrp(epsPlus, epsMinus float64) protospec.Spec {
	return protospec.Spec{Protocol: "ft-nrp", Lo: 400, Hi: 600, EpsPlus: epsPlus, EpsMinus: epsMinus}
}

// epsGrid is the tolerance axis used throughout the paper's figures.
var epsGrid = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}

// epsHeads heads one table row per epsGrid entry.
func epsHeads() [][]any {
	heads := make([][]any, len(epsGrid))
	for i, e := range epsGrid {
		heads[i] = []any{fmt.Sprintf("%.1f", e)}
	}
	return heads
}

// addGrid fills t from a grid of cells: one row per head — its own cells,
// then the next len(out)/len(heads) values of out, row-major. For an
// audited grid under Options.Check it adds the note summing the cells'
// oracle violations.
func (o Options) addGrid(t *Table, heads [][]any, out []CellOut, audited bool) {
	cols, violations := len(out)/len(heads), 0
	for ri, head := range heads {
		for _, c := range out[ri*cols : (ri+1)*cols] {
			head = append(head, c.Value)
			violations += c.Violations
		}
		t.AddRow(head...)
	}
	if audited && o.Check {
		t.AddNote("oracle violations across all cells: %d", violations)
	}
}

// Figure is one reproducible experiment from the paper's evaluation.
type Figure struct {
	ID    int
	Title string
	Run   func(Options) *Table
}

// Figures returns the registry of all reproduced figures in order.
func Figures() []Figure {
	return []Figure{
		{1, "Motivation: value-based vs rank-based tolerance", Figure1},
		{9, "RTP: effect of r (TCP-like, top-k)", Figure9},
		{10, "FT-NRP: effect of ε⁺/ε⁻ (TCP-like, range [400,600])", Figure10},
		{11, "FT-NRP: scalability in stream count (TCP-like)", Figure11},
		{12, "FT-NRP: effect of ε⁺/ε⁻ (synthetic, range [400,600])", Figure12},
		{13, "FT-NRP: data fluctuation σ (synthetic)", Figure13},
		{14, "FT-NRP: selection heuristics (synthetic)", Figure14},
		{15, "ZT-RP/FT-RP: effect of ε⁺/ε⁻ (synthetic k-NN)", Figure15},
		{16, "Supplemental: server computation", ServerCost},
	}
}

// FigureByID returns the figure with the given paper number.
func FigureByID(id int) (Figure, bool) {
	for _, f := range Figures() {
		if f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}

// --- workload builders ------------------------------------------------------

func tcpWorkload(o Options, n, conns int) workload.Workload {
	cfg := workload.DefaultTCPLike(conns, o.Seed)
	cfg.N = n
	w, err := workload.NewTCPLike(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

func synWorkload(o Options, sigma float64, events int) workload.Workload {
	cfg := workload.DefaultSynthetic(1, o.Seed)
	cfg.Sigma = sigma
	// horizon such that n/meanGap events per unit time yields the target.
	cfg.Horizon = float64(events) * cfg.MeanGap / float64(cfg.N)
	w, err := workload.NewSynthetic(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// --- Figure 9 ---------------------------------------------------------------

// Figure9 reproduces "RTP: Effect of r": maintenance messages of the
// rank-based tolerance protocol for a continuous top-k query as the rank
// slack r grows, against the no-filter baseline.
func Figure9(o Options) *Table {
	conns := o.scaled(40_000)
	w := tcpWorkload(o, 800, conns)
	rs := []int{0, 1, 2, 3, 5, 8, 12, 16, 20}
	ks := []int{15, 20, 25, 30}

	cells := make([]Cell, 0, len(rs)*len(ks)+1)
	// Row -1 holds the shared no-filter baseline, computed once.
	cells = append(cells, Cell{Figure: 9, Row: -1, Col: 0, Run: func(seed int64) CellOut {
		res := Run(Config{Workload: w, Seed: seed,
			NewProtocol: func(c server.Host, _ int64) server.Protocol {
				return core.NewNoFilterKNN(c, query.TopK(15))
			}})
		return CellOut{Value: res}
	}})
	for ri, r := range rs {
		for ci, k := range ks {
			rtp := protospec.Spec{Protocol: "rtp", K: k, R: r, Top: true}
			cells = append(cells, o.specCell(9, ri, ci, w, rtp, true))
		}
	}
	out := RunCells(o, cells)

	// Comma-ok: on context cancellation unstarted cells hold nil Values and
	// the table is abandoned by the caller; don't panic assembling it.
	base, _ := out[0].Value.(Result)
	cols := []string{"r", "no-filter"}
	for _, k := range ks {
		cols = append(cols, fmt.Sprintf("k=%d", k))
	}
	t := NewTable("Figure 9 — RTP: effect of r (maintenance messages)", cols...)
	t.AddNote("workload %s, %d events; top-k query (q=+inf)", w.Name(), base.Events)
	heads := make([][]any, len(rs))
	for i, r := range rs {
		heads[i] = []any{r, base.MaintMessages}
	}
	o.addGrid(t, heads, out[1:], true)
	return t
}

// --- Figures 10 and 12 ------------------------------------------------------

func ftnrpGrid(o Options, figID int, w workload.Workload, title string) *Table {
	cells := make([]Cell, 0, len(epsGrid)*len(epsGrid))
	for ri, ep := range epsGrid {
		for ci, em := range epsGrid {
			cells = append(cells, o.specCell(figID, ri, ci, w, ftnrp(ep, em), true))
		}
	}
	out := RunCells(o, cells)

	cols := []string{"ε⁺ \\ ε⁻"}
	for _, em := range epsGrid {
		cols = append(cols, fmt.Sprintf("%.1f", em))
	}
	t := NewTable(title, cols...)
	t.AddNote("workload %s; cells are maintenance messages of FT-NRP", w.Name())
	o.addGrid(t, epsHeads(), out, true)
	return t
}

// Figure10 reproduces the TCP-data FT-NRP tolerance surface.
func Figure10(o Options) *Table {
	w := tcpWorkload(o, 800, o.scaled(40_000))
	return ftnrpGrid(o, 10, w, "Figure 10 — FT-NRP: effect of ε⁺/ε⁻ (TCP-like)")
}

// Figure12 reproduces the synthetic-data FT-NRP tolerance surface.
func Figure12(o Options) *Table {
	w := synWorkload(o, 20, o.scaled(100_000))
	return ftnrpGrid(o, 12, w, "Figure 12 — FT-NRP: effect of ε⁺/ε⁻ (synthetic)")
}

// --- Figure 11 --------------------------------------------------------------

// Figure11 reproduces FT-NRP scalability: maintenance messages against the
// number of streams for several symmetric tolerances (ε⁺=ε⁻=ε; ε=0 is
// ZT-NRP).
func Figure11(o Options) *Table {
	ns := []int{200, 400, 600, 800, 1000, 1200, 1400, 1600, 1800, 2000}
	eps := []float64{0, 0.2, 0.3, 0.4, 0.5}

	ws := make([]workload.Workload, len(ns))
	for ri, n := range ns {
		ws[ri] = tcpWorkload(o, n, o.scaled(50*n))
	}
	cells := make([]Cell, 0, len(ns)*len(eps))
	for ri := range ns {
		for ci, e := range eps {
			spec := ftnrp(e, e)
			if e == 0 {
				spec.Protocol = "zt-nrp"
			}
			cells = append(cells, o.specCell(11, ri, ci, ws[ri], spec, false))
		}
	}
	out := RunCells(o, cells)

	cols := []string{"streams"}
	for _, e := range eps {
		cols = append(cols, fmt.Sprintf("ε=%.1f", e))
	}
	t := NewTable("Figure 11 — FT-NRP scalability (maintenance messages)", cols...)
	t.AddNote("TCP-like workload, 50 connections per subnet on average")
	heads := make([][]any, len(ns))
	for i, n := range ns {
		heads[i] = []any{n}
	}
	o.addGrid(t, heads, out, false)
	return t
}

// --- Figure 13 --------------------------------------------------------------

// Figure13 reproduces the data-fluctuation experiment: FT-NRP maintenance
// messages against symmetric tolerance for several random-walk deviations σ.
func Figure13(o Options) *Table {
	sigmas := []float64{20, 40, 60, 80, 100}
	events := o.scaled(100_000)

	ws := make([]workload.Workload, len(sigmas))
	for ci, s := range sigmas {
		ws[ci] = synWorkload(o, s, events)
	}
	cells := make([]Cell, 0, len(epsGrid)*len(sigmas))
	for ri, e := range epsGrid {
		for ci := range sigmas {
			cells = append(cells, o.specCell(13, ri, ci, ws[ci], ftnrp(e, e), false))
		}
	}
	out := RunCells(o, cells)

	cols := []string{"ε⁺=ε⁻"}
	for _, s := range sigmas {
		cols = append(cols, fmt.Sprintf("σ=%.0f", s))
	}
	t := NewTable("Figure 13 — FT-NRP: data fluctuation (synthetic)", cols...)
	o.addGrid(t, epsHeads(), out, false)
	return t
}

// --- Figure 14 --------------------------------------------------------------

// Figure14 reproduces the selection-heuristic comparison: random vs
// boundary-nearest assignment of the silent filters.
func Figure14(o Options) *Table {
	w := synWorkload(o, 20, o.scaled(100_000))
	sels := []string{protospec.SelectRandom, protospec.SelectBoundary}

	cells := make([]Cell, 0, len(epsGrid)*len(sels))
	for ri, e := range epsGrid {
		for ci, sel := range sels {
			spec := ftnrp(e, e)
			spec.Selection = sel
			cells = append(cells, o.specCell(14, ri, ci, w, spec, false))
		}
	}
	out := RunCells(o, cells)

	t := NewTable("Figure 14 — FT-NRP: selection heuristics (synthetic)",
		"ε⁺=ε⁻", "random", "boundary-nearest")
	t.AddNote("workload %s", w.Name())
	o.addGrid(t, epsHeads(), out, false)
	return t
}

// --- Figure 15 --------------------------------------------------------------

// Figure15 reproduces the k-NN tolerance experiment: ZT-RP at ε=0 against
// FT-RP for growing symmetric tolerance, for several k.
func Figure15(o Options) *Table {
	ks := []int{20, 60, 100}
	w := synWorkload(o, 20, o.scaled(30_000))

	cells := make([]Cell, 0, len(epsGrid)*len(ks))
	for ri, e := range epsGrid {
		for ci, k := range ks {
			// Only the FT-RP rows are audited, against the fraction tolerance
			// the figure is about.
			spec := protospec.Spec{Protocol: "ft-rp", Q: 500, K: k, EpsPlus: e, EpsMinus: e}
			if e == 0 {
				spec.Protocol = "zt-rp"
			}
			cells = append(cells, o.specCell(15, ri, ci, w, spec, e > 0))
		}
	}
	out := RunCells(o, cells)

	cols := []string{"ε⁺=ε⁻"}
	for _, k := range ks {
		cols = append(cols, fmt.Sprintf("k=%d", k))
	}
	t := NewTable("Figure 15 — ZT-RP/FT-RP: effect of ε⁺/ε⁻ (maintenance messages, log-scale in paper)", cols...)
	t.AddNote("workload %s; k-NN query point q=500; ε=0 row is ZT-RP", w.Name())
	o.addGrid(t, epsHeads(), out, true)
	return t
}

// --- shape helpers for reports and tests ------------------------------------

// ColumnUint extracts a numeric column (by header name) from a table.
func ColumnUint(t *Table, col string) ([]uint64, error) {
	idx := -1
	for i, c := range t.Cols {
		if c == col {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("experiment: no column %q in %q", col, t.Title)
	}
	out := make([]uint64, 0, len(t.Rows))
	for _, row := range t.Rows {
		var v uint64
		if _, err := fmt.Sscanf(row[idx], "%d", &v); err != nil {
			return nil, fmt.Errorf("experiment: column %q cell %q: %w", col, row[idx], err)
		}
		out = append(out, v)
	}
	return out, nil
}

// MostlyDecreasing reports whether the series trends downward: the last
// value is below the first and at least frac of consecutive steps do not
// increase by more than jitter (a relative slack for noisy series).
func MostlyDecreasing(series []uint64, frac, jitter float64) bool {
	if len(series) < 2 {
		return true
	}
	good := 0
	for i := 1; i < len(series); i++ {
		if float64(series[i]) <= float64(series[i-1])*(1+jitter) {
			good++
		}
	}
	return series[len(series)-1] < series[0] &&
		float64(good) >= frac*float64(len(series)-1)
}

// Sorted returns a copy of the series sorted ascending (test helper).
func Sorted(series []uint64) []uint64 {
	out := append([]uint64(nil), series...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
