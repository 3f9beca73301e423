package experiment

import "testing"

// tiny returns options small enough for unit tests but large enough for the
// paper's qualitative shapes to emerge.
func tiny() Options { return Options{Scale: 0.05, Seed: 1} }

func TestFigureRegistry(t *testing.T) {
	figs := Figures()
	wantIDs := []int{1, 9, 10, 11, 12, 13, 14, 15, 16}
	if len(figs) != len(wantIDs) {
		t.Fatalf("registry has %d figures, want %d", len(figs), len(wantIDs))
	}
	for i, f := range figs {
		if f.ID != wantIDs[i] {
			t.Fatalf("figure %d has ID %d, want %d", i, f.ID, wantIDs[i])
		}
		if f.Run == nil || f.Title == "" {
			t.Fatalf("figure %d incomplete", f.ID)
		}
	}
	if _, ok := FigureByID(9); !ok {
		t.Fatal("FigureByID(9) not found")
	}
	if _, ok := FigureByID(8); ok {
		t.Fatal("FigureByID(8) unexpectedly found")
	}
}

func TestFigure9Shape(t *testing.T) {
	tbl := Figure9(Options{Scale: 0.2, Seed: 1})
	for _, k := range []string{"k=15", "k=20", "k=25", "k=30"} {
		col, err := ColumnUint(tbl, k)
		if err != nil {
			t.Fatal(err)
		}
		// Paper shape: r=0 is the worst point and large r improves on it by
		// a wide margin.
		last := col[len(col)-1]
		if col[0] <= last {
			t.Fatalf("%s: messages at r=0 (%d) not above r=max (%d)", k, col[0], last)
		}
		if float64(last) > 0.5*float64(col[0]) {
			t.Fatalf("%s: tolerance saved too little: r=0 %d → r=max %d", k, col[0], last)
		}
	}
	// At r=0 and the largest k, RTP must cost more than no-filter (the
	// paper's remark about frequent bound recomputation).
	nf, _ := ColumnUint(tbl, "no-filter")
	k30, _ := ColumnUint(tbl, "k=30")
	if k30[0] <= nf[0] {
		t.Fatalf("k=30, r=0: RTP %d <= no-filter %d; paper shows the inversion", k30[0], nf[0])
	}
}

func TestFigure10And12Shape(t *testing.T) {
	for _, fig := range []struct {
		name string
		run  func(Options) *Table
	}{
		{"Figure10", Figure10},
		{"Figure12", Figure12},
	} {
		tbl := fig.run(tiny())
		// The zero-tolerance corner must be the most expensive cell and the
		// (0.5, 0.5) corner must be cheaper.
		first, err := ColumnUint(tbl, "0.0")
		if err != nil {
			t.Fatal(err)
		}
		lastCol, err := ColumnUint(tbl, "0.5")
		if err != nil {
			t.Fatal(err)
		}
		zt := first[0]
		best := lastCol[len(lastCol)-1]
		if best >= zt {
			t.Fatalf("%s: (0.5,0.5)=%d not below (0,0)=%d", fig.name, best, zt)
		}
	}
}

func TestFigure11Shape(t *testing.T) {
	tbl := Figure11(Options{Scale: 0.05, Seed: 1})
	zt, err := ColumnUint(tbl, "ε=0.0")
	if err != nil {
		t.Fatal(err)
	}
	tol, err := ColumnUint(tbl, "ε=0.5")
	if err != nil {
		t.Fatal(err)
	}
	// Cost grows with the number of streams (compare first and last rows)
	// and tolerance helps at the largest scale.
	if zt[len(zt)-1] <= zt[0] {
		t.Fatalf("ZT cost did not grow with streams: %v", zt)
	}
	if tol[len(tol)-1] >= zt[len(zt)-1] {
		t.Fatalf("ε=0.5 (%d) not below ε=0 (%d) at 2000 streams",
			tol[len(tol)-1], zt[len(zt)-1])
	}
}

func TestFigure13Shape(t *testing.T) {
	tbl := Figure13(tiny())
	lo, err := ColumnUint(tbl, "σ=20")
	if err != nil {
		t.Fatal(err)
	}
	hi, err := ColumnUint(tbl, "σ=100")
	if err != nil {
		t.Fatal(err)
	}
	for i := range lo {
		if hi[i] <= lo[i] {
			t.Fatalf("row %d: σ=100 (%d) not above σ=20 (%d)", i, hi[i], lo[i])
		}
	}
	// Tolerance helps within each σ.
	if hi[len(hi)-1] >= hi[0] {
		t.Fatalf("σ=100: ε=0.5 (%d) not below ε=0 (%d)", hi[len(hi)-1], hi[0])
	}
}

func TestFigure14Shape(t *testing.T) {
	tbl := Figure14(tiny())
	random, err := ColumnUint(tbl, "random")
	if err != nil {
		t.Fatal(err)
	}
	boundary, err := ColumnUint(tbl, "boundary-nearest")
	if err != nil {
		t.Fatal(err)
	}
	// At zero tolerance the heuristics coincide; at the top tolerance
	// boundary-nearest must win.
	if random[0] != boundary[0] {
		t.Fatalf("ε=0 rows differ: %d vs %d", random[0], boundary[0])
	}
	last := len(random) - 1
	if boundary[last] >= random[last] {
		t.Fatalf("ε=0.5: boundary-nearest (%d) not below random (%d)",
			boundary[last], random[last])
	}
}

func TestFigure15Shape(t *testing.T) {
	tbl := Figure15(Options{Scale: 0.05, Seed: 1})
	for _, k := range []string{"k=20", "k=60", "k=100"} {
		col, err := ColumnUint(tbl, k)
		if err != nil {
			t.Fatal(err)
		}
		// ε=0 (ZT-RP) must dwarf every tolerant setting — the paper plots
		// this on a log axis.
		for i := 1; i < len(col); i++ {
			if col[i]*2 > col[0] {
				t.Fatalf("%s: ε>0 row %d (%d) not far below ZT-RP (%d)", k, i, col[i], col[0])
			}
		}
	}
}

func TestColumnUintErrors(t *testing.T) {
	tbl := Figure14(tiny())
	if _, err := ColumnUint(tbl, "nope"); err == nil {
		t.Fatal("missing column accepted")
	}
}

func TestMostlyDecreasing(t *testing.T) {
	if !MostlyDecreasing([]uint64{10, 8, 9, 5, 1}, 0.7, 0.2) {
		t.Fatal("noisy decreasing series rejected")
	}
	if MostlyDecreasing([]uint64{1, 2, 3}, 0.7, 0) {
		t.Fatal("increasing series accepted")
	}
	if !MostlyDecreasing([]uint64{5}, 1, 0) {
		t.Fatal("singleton rejected")
	}
}

func TestSorted(t *testing.T) {
	in := []uint64{3, 1, 2}
	out := Sorted(in)
	if out[0] != 1 || out[2] != 3 {
		t.Fatalf("Sorted = %v", out)
	}
	if in[0] != 3 {
		t.Fatal("Sorted mutated its input")
	}
}

func TestFigureDeterminism(t *testing.T) {
	a := Figure14(tiny())
	b := Figure14(tiny())
	if a.String() != b.String() {
		t.Fatalf("figure not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestFigure9WithOracleReportsZeroViolations(t *testing.T) {
	tbl := Figure9(Options{Scale: 0.05, Seed: 1, Check: true, CheckEvery: 20})
	found := false
	for _, n := range tbl.Notes {
		if n == "oracle violations across all cells: 0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected zero-violation note, got notes %v", tbl.Notes)
	}
}

func TestFigure15WithOracleReportsZeroViolations(t *testing.T) {
	tbl := Figure15(Options{Scale: 0.05, Seed: 1, Check: true, CheckEvery: 50})
	found := false
	for _, n := range tbl.Notes {
		if n == "oracle violations across all cells: 0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected zero-violation note, got notes %v", tbl.Notes)
	}
}
