package experiment

import (
	"context"
	"fmt"
	"testing"
)

// TestParallelMatchesSequential is the engine's core guarantee: the same
// base seed regenerates byte-identical tables at every worker count,
// independent of goroutine scheduling, because each cell derives its own
// seed from its grid coordinates.
func TestParallelMatchesSequential(t *testing.T) {
	figs := []struct {
		name string
		run  func(Options) *Table
	}{
		{"Figure9", Figure9},
		{"Figure14", Figure14},
		{"ServerCost", ServerCost},
	}
	for _, f := range figs {
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			base := f.run(Options{Scale: 0.02, Seed: 3, Workers: 1}).String()
			for _, workers := range []int{2, 3, 8, -1} {
				got := f.run(Options{Scale: 0.02, Seed: 3, Workers: workers}).String()
				if got != base {
					t.Fatalf("workers=%d diverged from sequential:\n%s\nvs\n%s",
						workers, got, base)
				}
			}
		})
	}
}

// TestRunCellsPositional checks that results land by cell index, not
// completion order, and that each cell receives its own derived seed.
func TestRunCellsPositional(t *testing.T) {
	const n = 64
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{Figure: 7, Row: i / 8, Col: i % 8, Run: func(seed int64) CellOut {
			return CellOut{Value: fmt.Sprintf("%d:%d", i, seed), Violations: i}
		}}
	}
	seq := RunCells(Options{Seed: 5, Workers: 1}, cells)
	par := RunCells(Options{Seed: 5, Workers: 4}, cells)
	seeds := make(map[string]int)
	for i := range cells {
		if seq[i] != par[i] {
			t.Fatalf("cell %d: sequential %v != parallel %v", i, seq[i], par[i])
		}
		if seq[i].Violations != i {
			t.Fatalf("cell %d result landed at the wrong index: %v", i, seq[i])
		}
		want := fmt.Sprintf("%d:%d", i, cells[i].Seed(5))
		if seq[i].Value != want {
			t.Fatalf("cell %d ran with the wrong seed: %v want %v", i, seq[i].Value, want)
		}
		seeds[fmt.Sprint(cells[i].Seed(5))]++
	}
	if len(seeds) != n {
		t.Fatalf("only %d distinct seeds across %d cells", len(seeds), n)
	}
}

// TestCellSeedIndependence: the derived seed must depend on every
// coordinate and on the base seed.
func TestCellSeedIndependence(t *testing.T) {
	base := Cell{Figure: 9, Row: 2, Col: 3}
	variants := []Cell{
		{Figure: 10, Row: 2, Col: 3},
		{Figure: 9, Row: 3, Col: 3},
		{Figure: 9, Row: 2, Col: 4},
		{Figure: 9, Row: 3, Col: 2}, // swapped coordinates
	}
	s := base.Seed(1)
	if s != base.Seed(1) {
		t.Fatal("seed derivation not stable")
	}
	for _, v := range variants {
		if v.Seed(1) == s {
			t.Fatalf("cell %+v shares a seed with %+v", v, base)
		}
	}
	if base.Seed(2) == s {
		t.Fatal("seed does not depend on the base seed")
	}
}

// TestRunCellsCancellation: a cancelled context stops the engine from
// scheduling further cells; unstarted cells stay zero.
func TestRunCellsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := 0
	cells := make([]Cell, 16)
	for i := range cells {
		cells[i] = Cell{Row: i, Run: func(int64) CellOut {
			ran++
			cancel() // fires during the first executed cell
			return CellOut{Value: "ran"}
		}}
	}
	out := RunCells(Options{Ctx: ctx, Workers: 1}, cells)
	if ran != 1 {
		t.Fatalf("%d cells ran after cancellation, want 1", ran)
	}
	if out[0].Value != "ran" {
		t.Fatal("the in-flight cell's result was dropped")
	}
	for i := 1; i < len(out); i++ {
		if out[i] != (CellOut{}) {
			t.Fatalf("cell %d ran after cancellation: %v", i, out[i])
		}
	}

	// Already-cancelled context: nothing runs, also on the parallel path.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	out = RunCells(Options{Ctx: ctx2, Workers: 4}, cells)
	for i, c := range out {
		if c != (CellOut{}) {
			t.Fatalf("cell %d ran under a dead context: %v", i, c)
		}
	}
}

// TestWorkerCountResolution pins the Options.Workers contract.
func TestWorkerCountResolution(t *testing.T) {
	for _, tc := range []struct{ in, min int }{
		{0, 1}, {1, 1}, {7, 7}, {-1, 1},
	} {
		got := Options{Workers: tc.in}.workerCount()
		if got < tc.min {
			t.Fatalf("Workers=%d resolved to %d", tc.in, got)
		}
		if tc.in > 0 && got != tc.in {
			t.Fatalf("Workers=%d resolved to %d, want exact", tc.in, got)
		}
	}
}
