package experiment

import (
	"context"
	"runtime"
	"sync"

	"adaptivefilters/internal/sim"
)

// Cell is one independent simulation job inside a figure's grid: a
// deterministic coordinate plus a closure that executes the run. Every
// figure expands into a flat slice of cells, so the engine — and any future
// cross-process or cross-machine sharder — can schedule them freely without
// affecting the regenerated table.
type Cell struct {
	// Figure is the paper figure ID the cell belongs to; it participates in
	// seed derivation so equal coordinates in different figures still draw
	// from uncorrelated RNG streams.
	Figure int
	// Row and Col locate the cell in the figure's output grid. They are part
	// of the seed derivation, not just bookkeeping: a cell's randomness is a
	// pure function of (base seed, figure, row, col).
	Row, Col int
	// Run executes the simulation with the cell's derived seed.
	Run func(seed int64) CellOut
}

// CellOut is the outcome of one cell.
type CellOut struct {
	// Value is the figure-specific payload (typically a message count or a
	// whole Result) formatted into the table by the assembling figure.
	Value any
	// Violations counts oracle violations observed during the cell's run;
	// figures sum it across cells in index order.
	Violations int
}

// Seed derives the cell's independent RNG seed from the base seed by
// hashing the figure ID and grid coordinates. Both the sequential and the
// parallel path use it, which is why worker count cannot change results.
func (c Cell) Seed(base int64) int64 {
	return sim.DeriveSeed(base, int64(c.Figure), int64(c.Row), int64(c.Col))
}

// workerCount resolves Options.Workers to a concrete pool size.
func (o Options) workerCount() int {
	switch {
	case o.Workers > 0:
		return o.Workers
	case o.Workers < 0:
		return runtime.GOMAXPROCS(0)
	default:
		return 1
	}
}

// ctx resolves Options.Ctx.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// RunCells executes every cell under o's worker policy and returns outputs
// positionally: out[i] is cells[i]'s result regardless of completion order,
// so assembling a Table from the slice is deterministic for any
// worker count.
//
// Workers <= 1 runs the cells inline in index order; larger pools fan the
// cells out over that many goroutines. When o.Ctx is cancelled the engine
// stops scheduling new cells, waits for in-flight ones, and leaves the
// cells that never started as zero CellOuts — callers that care should
// check o.Ctx.Err() before trusting a table.
func RunCells(o Options, cells []Cell) []CellOut {
	out := make([]CellOut, len(cells))
	ctx := o.ctx()
	workers := o.workerCount()
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers <= 1 {
		for i, c := range cells {
			if ctx.Err() != nil {
				break
			}
			out[i] = c.Run(c.Seed(o.Seed))
		}
		return out
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = cells[i].Run(cells[i].Seed(o.Seed))
			}
		}()
	}
feed:
	for i := range cells {
		// Checked before the select too: with a worker ready AND the context
		// dead, select would pick a case at random and could leak a job.
		if ctx.Err() != nil {
			break
		}
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return out
}
