package experiment

import "adaptivefilters/internal/protospec"

// serverCostRows are the protocols the server-computation table compares,
// as declarative specs: none of them draws on its seed, so the same rows
// reproduce the table on any host that compiles a spec (see
// TestServerCostGoldenOnServingStack).
var serverCostRows = []struct {
	name string
	spec protospec.Spec
}{
	{"no-filter", protospec.Spec{Protocol: "no-filter", Lo: 400, Hi: 600}},
	{"zt-nrp", protospec.Spec{Protocol: "zt-nrp", Lo: 400, Hi: 600}},
	{"ft-nrp ε=0.2", ftnrp(0.2, 0.2)},
	{"ft-nrp ε=0.5", ftnrp(0.5, 0.5)},
}

// ServerCost is the supplemental experiment backing the paper's abstract
// claim that the protocols save "server computation" as well as
// communication: identical synthetic workload, one row per protocol,
// reporting both maintenance messages and the ServerOps metric (stream
// records touched by server-side ranking and maintenance passes).
func ServerCost(o Options) *Table {
	w := synWorkload(o, 20, o.scaled(100_000))
	cells := make([]Cell, len(serverCostRows))
	for ri, row := range serverCostRows {
		cells[ri] = Cell{Figure: 16, Row: ri, Col: 0, Run: func(seed int64) CellOut {
			build, err := row.spec.Factory()
			must(err)
			res := Run(Config{Workload: w, Seed: seed, NewProtocol: build})
			return CellOut{Value: res}
		}}
	}
	out := RunCells(o, cells)

	// Comma-ok: on context cancellation unstarted cells hold nil Values and
	// the table is abandoned by the caller; don't panic assembling it.
	counters := make([]Result, len(out))
	for ri := range out {
		counters[ri], _ = out[ri].Value.(Result)
	}
	return serverCostTable(w.Name(), counters)
}

// serverCostTable renders one (maintenance messages, server ops) row per
// serverCostRows entry.
func serverCostTable(workload string, counters []Result) *Table {
	t := NewTable("Supplemental — server computation (synthetic, range [400,600])",
		"protocol", "maint msgs", "server ops")
	t.AddNote("workload %s; server ops = stream records touched (incl. one full t0 scan)", workload)
	for ri, row := range serverCostRows {
		t.AddRow(row.name, counters[ri].MaintMessages, counters[ri].ServerOps)
	}
	return t
}
