package core

import (
	"fmt"
	"math"
	"slices"

	"adaptivefilters/internal/query"
	"adaptivefilters/internal/snapshot"
	"adaptivefilters/internal/stream"
	"adaptivefilters/internal/topk"
)

// toldValues is what a k-NN baseline (VB-kNN, the no-filter k-NN) knows of
// its streams: the value each was last handed, by Initialize's probe or by
// an update, in a value column beside a presence column. A stream is
// present once either reached it. This is the protocol's own view, not the
// host table: inside a composite, probes and sibling queries' installs
// refresh the shared table without calling this query's HandleUpdate.
//
// Writes are O(1) and keep no order. Only nearest ranks — one Dists call
// and a partial selection, RTP's rank kernel — so a baseline pays for
// order once per answer, not on every report it is told.
type toldValues struct {
	vals    []float64
	has     []bool
	present int          // number of set entries in has
	rk      topk.Ranking // nearest's scratch; grows on the first answer
}

func newToldValues(n int) toldValues {
	return toldValues{vals: make([]float64, n), has: make([]bool, n)}
}

// load makes every stream present at vals[id], one value per stream. It
// panics on a NaN value, leaving the columns untouched.
func (t *toldValues) load(vals []float64) {
	for _, v := range vals {
		if math.IsNaN(v) {
			panic("core: told a NaN value")
		}
	}
	copy(t.vals, vals)
	for id := range t.has {
		t.has[id] = true
	}
	t.present = len(t.has)
}

// set records stream id at v. A NaN value has no distance to rank by and
// validated ingest cannot produce one, so it panics as a caller bug.
func (t *toldValues) set(id stream.ID, v float64) {
	if math.IsNaN(v) {
		panic("core: told a NaN value")
	}
	if !t.has[id] {
		t.has[id] = true
		t.present++
	}
	t.vals[id] = v
}

// nearest returns the k present streams nearest q in (distance, id) order,
// fewer when fewer are present, and nil when none is asked for or present.
// The returned slice is the caller's; a warm call allocates nothing else.
func (t *toldValues) nearest(q query.Center, k int) []stream.ID {
	k = min(k, t.present)
	if k <= 0 {
		return nil
	}
	if t.present == len(t.vals) {
		q.Dists(t.rk.Load(len(t.vals)), t.vals)
	} else {
		// Only before Initialize or after restoring such a record.
		t.rk.Reset()
		for id, ok := range t.has {
			if ok {
				t.rk.Add(id, q.Dist(t.vals[id]))
			}
		}
	}
	ids, _ := t.rk.Order(k)
	return slices.Clone(ids[:k])
}

// exportState writes the capacity, then each stream's presence and, when
// present, its value: the record layout the baselines have always written.
func (t *toldValues) exportState(w *snapshot.Writer) {
	w.Int(len(t.vals))
	for id, ok := range t.has {
		w.Bool(ok)
		if ok {
			w.Float64(t.vals[id])
		}
	}
}

// importState replaces the columns with a record exportState wrote for the
// same stream count. A different capacity and a NaN value are errors: a
// corrupt snapshot is bad input, not a caller bug.
func (t *toldValues) importState(r *snapshot.Reader) error {
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(t.vals) {
		return fmt.Errorf("core: snapshot k-NN record for %d streams, host has %d", n, len(t.vals))
	}
	vals, has, present := make([]float64, n), make([]bool, n), 0
	for id := range has {
		if has[id] = r.Bool(); has[id] {
			vals[id] = r.Float64()
			present++
			// The codec round-trips NaN bit-exactly, so a corrupt
			// snapshot can carry one.
			if math.IsNaN(vals[id]) {
				return fmt.Errorf("core: snapshot k-NN value for stream %d is NaN", id)
			}
		}
		if err := r.Err(); err != nil {
			return err
		}
	}
	t.vals, t.has, t.present = vals, has, present
	return nil
}
