package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden tables under testdata/")

// goldenWorkers overrides the cell-engine pool size the golden tables are
// regenerated with (0 = sequential). The committed bytes must be identical
// at every setting; the CI determinism job runs the golden tests at 1 and 8
// workers to pin that.
var goldenWorkers = flag.Int("golden-workers", 0, "cell-engine workers for golden regeneration")

// goldenOpts pins the exact configuration the committed tables were
// generated with. Changing any of it invalidates testdata/ — regenerate
// with `go test ./internal/experiment -run TestGolden -update`.
func goldenOpts() Options { return Options{Scale: 0.02, Seed: 1, Workers: *goldenWorkers} }

func checkGolden(t *testing.T, name string, tbl *Table) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	got := tbl.String()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden table (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from the committed table.\n--- got ---\n%s--- want ---\n%s"+
			"If the change is an intended protocol-efficiency shift, regenerate "+
			"with `go test ./internal/experiment -run TestGolden -update` and "+
			"commit the diff; otherwise this is a regression.", name, got, want)
	}
}

// TestGoldenFigure14 locks the small-scale Figure 14 table (FT-NRP selection
// heuristics): both the message counts of every (ε, heuristic) cell and the
// table rendering itself. Any protocol-efficiency regression — or accidental
// change to the engine's per-cell seed derivation — fails this loudly.
func TestGoldenFigure14(t *testing.T) {
	checkGolden(t, "figure14", Figure14(goldenOpts()))
}

// TestGoldenServerCost locks the supplemental server-computation table
// (maintenance messages and server ops per protocol).
func TestGoldenServerCost(t *testing.T) {
	checkGolden(t, "servercost", ServerCost(goldenOpts()))
}

// TestGoldenIsWorkerInvariant regenerates one golden figure with a parallel
// engine and compares against the same committed bytes: the committed
// tables pin the sequential path, so this transitively pins the parallel
// one too.
func TestGoldenIsWorkerInvariant(t *testing.T) {
	if *updateGolden {
		t.Skip("golden update pass")
	}
	o := goldenOpts()
	o.Workers = 4
	checkGolden(t, "figure14", Figure14(o))
}
