// Command figures regenerates the paper's evaluation figures (1, 9–15 and
// the supplemental server-cost table, 16) as text tables or CSV.
//
// Usage:
//
//	figures [-figure N] [-scale S] [-seed K] [-check] [-csv] [-parallel] [-workers W]
//
// Without -figure it runs the full evaluation suite. -scale multiplies the
// workload sizes (1.0 = the defaults documented in DESIGN.md; ≈15 matches
// the paper's full TCP trace volume); it must be positive and finite, and
// a bad value, like an unknown figure, exits 2. -check enables oracle
// validation of every answer while the simulation runs.
//
// -parallel fans each figure's independent cells out over a
// runtime.GOMAXPROCS worker pool; -workers W picks an explicit pool size.
// Every cell derives its own seed from -seed and its grid coordinates, so
// the tables are byte-identical to a sequential run. Ctrl-C cancels the
// regeneration between cells.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"adaptivefilters/internal/experiment"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintln(os.Stderr, "figures:", err)
	if errors.As(err, new(usageError)) {
		os.Exit(2)
	}
	os.Exit(1)
}

// usageError is a bad command line: exit status 2, as for a flag error.
type usageError struct{ error }

// run is the whole command. It never exits the process, so tests drive it
// in-process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		figure   = fs.Int("figure", 0, "figure number to run ("+figureIDs()+"); 0 = all")
		scale    = fs.Float64("scale", 1.0, "workload size multiplier (positive)")
		seed     = fs.Int64("seed", 1, "determinism seed")
		check    = fs.Bool("check", false, "validate answers against the ground-truth oracle")
		every    = fs.Int("check-every", 25, "oracle check sampling period (with -check)")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		parallel = fs.Bool("parallel", false, "run each figure's cells on a GOMAXPROCS worker pool")
		workers  = fs.Int("workers", 0, "explicit worker-pool size (implies -parallel; 0 = sequential)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		return usageError{fmt.Errorf("-scale must be a positive finite number, got %v", *scale)}
	}
	figs := experiment.Figures()
	if *figure != 0 {
		f, ok := experiment.FigureByID(*figure)
		if !ok {
			return usageError{fmt.Errorf("unknown figure %d (have %s)", *figure, figureIDs())}
		}
		figs = []experiment.Figure{f}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := experiment.Options{
		Scale: *scale, Seed: *seed, Check: *check, CheckEvery: *every,
		Workers: *workers, Ctx: ctx,
	}
	if *parallel && *workers == 0 {
		opts.Workers = -1 // resolve to runtime.GOMAXPROCS(0)
	}
	for i, f := range figs {
		start := time.Now()
		table := f.Run(opts)
		if ctx.Err() != nil {
			return errors.New("cancelled")
		}
		if *csv {
			if err := table.CSV(stdout); err != nil {
				return err
			}
			continue
		}
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if err := table.Fprint(stdout); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  (%.1fs)\n", time.Since(start).Seconds())
	}
	return nil
}

// figureIDs lists the registry's figure numbers.
func figureIDs() string {
	var ids []string
	for _, f := range experiment.Figures() {
		ids = append(ids, fmt.Sprint(f.ID))
	}
	return strings.Join(ids, ", ")
}
