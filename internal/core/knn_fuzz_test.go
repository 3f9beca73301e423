package core_test

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
)

// knnFuzzValue maps one fuzz byte to a value: the signed zeros, ±MaxFloat64
// (whose distances overflow to +Inf, so they tie), and otherwise a
// half-unit on [−64, 63.5], which keeps duplicate values and distance ties
// on both sides of a center common.
func knnFuzzValue(b byte) float64 {
	switch b {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.MaxFloat64
	case 3:
		return -math.MaxFloat64
	}
	return float64(int8(b)) / 2
}

// kNearest is the reference ranking: up to k of the present streams,
// sorted by (distance from q, id).
func kNearest(vals []float64, present []bool, q query.Center, k int) []int {
	var ids []int
	for id, ok := range present {
		if ok {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(a, b int) bool {
		da, db := q.Dist(vals[ids[a]]), q.Dist(vals[ids[b]])
		return da < db || da == db && ids[a] < ids[b]
	})
	return ids[:min(k, len(ids))]
}

// FuzzKNNBaselines hands VB-kNN, the no-filter k-NN and a plain model the
// same values and requires both baselines' Answer to equal the model's
// (distance, id) sort after every step. The input is a
// header — stream count n in 1..8, k in 1..n, the center (At, Top or
// Bottom) and its point — then n initial values and a sequence of
// (op, value) byte pairs: op%5 == 0 initializes every side from the
// initial values, anything else hands stream op>>3 (mod n) the value, so
// updates before Initialize leave streams absent until it runs.
func FuzzKNNBaselines(f *testing.F) {
	// At(10): duplicates at 9 and 11 tie across the center; early updates.
	f.Add([]byte{4, 2, 0, 20, 18, 22, 18, 22, 9, 18, 17, 22, 0, 0, 25, 18, 33, 20})
	// Top and Bottom over ±0 and ±MaxFloat64, k = n.
	f.Add([]byte{3, 3, 1, 0, 0, 1, 2, 0, 0, 9, 3, 17, 1, 25, 2})
	f.Add([]byte{3, 3, 2, 0, 3, 1, 0, 0, 0, 9, 2, 17, 0, 25, 3})
	// A center at −MaxFloat64: ±MaxFloat64 and the far values tie at +Inf.
	f.Add([]byte{5, 3, 0, 3, 2, 2, 40, 200, 3, 0, 0, 9, 2, 17, 3, 25, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 1 + int(data[0])%8
		k := 1 + int(data[1])%n
		q := []query.Center{query.At(knnFuzzValue(data[3])), query.Top(), query.Bottom()}[data[2]%3]
		data = data[4:]
		if len(data) < n {
			return
		}
		initial := make([]float64, n)
		for i := range initial {
			initial[i] = knnFuzzValue(data[i])
		}
		data = data[n:]

		knn := query.NewKNN(q, k)
		var clusters []*server.Cluster
		var protos []server.Protocol
		for _, build := range []func(server.Host) server.Protocol{
			func(h server.Host) server.Protocol { return core.NewVBKNN(h, knn, 3) },
			func(h server.Host) server.Protocol { return core.NewNoFilterKNN(h, knn) },
		} {
			c := server.NewCluster(append([]float64(nil), initial...))
			p := build(c)
			c.SetProtocol(p)
			clusters, protos = append(clusters, c), append(protos, p)
		}
		vals, present := make([]float64, n), make([]bool, n)
		check := func(step int) {
			t.Helper()
			want := kNearest(vals, present, q, k)
			for _, p := range protos {
				if got := p.Answer(); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: %s answers %v, the sort %v", step, p.Name(), got, want)
				}
			}
		}
		check(0)
		for step := 1; len(data) >= 2; step, data = step+1, data[2:] {
			op, v := data[0], knnFuzzValue(data[1])
			if op%5 == 0 {
				for _, c := range clusters {
					c.Initialize()
				}
				copy(vals, initial)
				for id := range present {
					present[id] = true
				}
			} else {
				id := int(op>>3) % n
				for _, p := range protos {
					p.HandleUpdate(id, v)
				}
				vals[id], present[id] = v, true
			}
			check(step)
		}
	})
}
