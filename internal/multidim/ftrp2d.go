package multidim

import (
	"fmt"
	"math"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/stream"
	"adaptivefilters/internal/topk"
)

// FTRP2D is the fraction-based tolerance k-NN protocol (paper §5.2) over
// 2-D points: the k-NN query becomes a disk-range query over R, silent
// wide-open/shut disks implement the false-positive and false-negative
// filters with budgets on the Equation 16 frontier, and R is recomputed
// only when the answer size leaves its admissible window (with the same
// window tightening as the 1-D core.FTRP; see DESIGN.md §3).
//
// FTRP2D is a server.SpatialStatefulProtocol: it runs under any
// SpatialHost and snapshots via ExportState/ImportState.
type FTRP2D struct {
	h   server.SpatialHost
	q   Point
	k   int
	tol core.FractionTolerance

	nPlusBudget, nMinusBudget int
	minA, maxA                int

	ans   map[int]bool
	fp    map[int]bool
	fn    map[int]bool
	count int
	cur   filter.Region

	rs     topk.Ranking
	ptsBuf []Point // probe fan-out and rank-pass table copy

	// Recomputes counts full bound recomputations.
	Recomputes uint64
}

var _ server.SpatialStatefulProtocol = (*FTRP2D)(nil)

// NewFTRP2D builds the protocol with a balanced Equation 16 split against a
// spatial host. The caller wires it in with SetProtocol and runs the t0
// phase via the host's Initialize. It panics on invalid parameters.
func NewFTRP2D(h server.SpatialHost, q Point, k int, tol core.FractionTolerance) *FTRP2D {
	if err := tol.Validate(); err != nil {
		panic(err)
	}
	if k <= 0 || k >= h.N() {
		panic(fmt.Sprintf("multidim: ft-rp2d needs 1 <= k < n, got k=%d n=%d", k, h.N()))
	}
	if q.IsNaN() {
		panic("multidim: NaN query point")
	}
	p := &FTRP2D{
		h: h, q: q, k: k, tol: tol,
		ans: map[int]bool{}, fp: map[int]bool{}, fn: map[int]bool{},
	}
	rhoPlus, rhoMinus := tol.DeriveRho(0.5)
	p.nPlusBudget = int(float64(k) * rhoPlus)
	p.nMinusBudget = int(float64(k) * rhoMinus)
	p.deriveWindow()
	return p
}

// deriveWindow mirrors core.FTRP.deriveWindow for the 2-D variant.
func (p *FTRP2D) deriveWindow() {
	for {
		s := p.nPlusBudget + p.nMinusBudget
		maxA := int(math.Floor(float64(p.k-s) / (1 - p.tol.EpsPlus)))
		minA := int(math.Ceil(float64(p.k)*(1-p.tol.EpsMinus))) + s
		if pm, pM := p.tol.AnswerBounds(p.k); true {
			if minA < pm {
				minA = pm
			}
			if maxA > pM {
				maxA = pM
			}
		}
		if (maxA >= p.k && minA <= p.k) || s == 0 {
			p.minA, p.maxA = minA, maxA
			return
		}
		if p.nMinusBudget >= p.nPlusBudget {
			p.nMinusBudget--
		} else {
			p.nPlusBudget--
		}
	}
}

// Name identifies the protocol.
func (p *FTRP2D) Name() string { return fmt.Sprintf("ft-rp2d(k=%d,%v)", p.k, p.tol) }

// Bound returns the deployed region (tests).
func (p *FTRP2D) Bound() filter.Region { return p.cur }

// Answer returns A(t) sorted by id.
func (p *FTRP2D) Answer() []stream.ID { return sortedKeys(p.ans) }

// NPlus returns the live false-positive filter count.
func (p *FTRP2D) NPlus() int { return len(p.fp) }

// NMinus returns the live false-negative filter count.
func (p *FTRP2D) NMinus() int { return len(p.fn) }

// Initialize probes everything and deploys R plus the silent disks.
// Accounting phases are switched by the host.
func (p *FTRP2D) Initialize() {
	p.ptsBuf = p.h.ProbeAllInto(p.ptsBuf)
	p.rebuild()
}

// rebuild recomputes R, the answer and the silent disks from the host
// table. It reads the ranking up to the (k+1)-st distance and the last
// false-negative holder, so that is all it orders.
func (p *FTRP2D) rebuild() {
	m := p.k + 1
	if fnEnd := p.k + p.nMinusBudget; fnEnd > m {
		m = fnEnd
	}
	ids, dists := rankNearest(&p.rs, &p.ptsBuf, p.h, p.q, m)

	clear(p.ans)
	clear(p.fp)
	clear(p.fn)
	p.count = 0
	p.cur = filter.NewDisk(p.q, (dists[p.k-1]+dists[p.k])/2)

	// Boundary-nearest placement: inside streams with the largest distance,
	// outside streams with the smallest. The ranking is a permutation of all
	// n ids, so inside ids[:k] the false-positive holders are its tail and
	// outside it the false-negative holders lead: four ranked slices, four
	// batched installs. Every rebuild follows a ProbeAll, so the table is
	// the truth, no install can mismatch and draw a report, and the ranked
	// install order is unobservable (TestFTRP2DInstallsNeverMismatch).
	inside, outside := ids[:p.k], ids[p.k:]
	fpFrom := max(p.k-p.nPlusBudget, 0)
	fp := inside[fpFrom:]
	fn := outside[:min(p.nMinusBudget, len(outside))]
	for _, id := range inside {
		p.ans[id] = true
	}
	for _, id := range fp {
		p.fp[id] = true
	}
	for _, id := range fn {
		p.fn[id] = true
	}
	p.h.InstallBatch(fp, filter.WideOpenRegion(p.q))
	p.h.InstallBatch(inside[:fpFrom], p.cur)
	p.h.InstallBatch(fn, filter.ShutRegion(p.q))
	p.h.InstallBatch(outside[len(fn):], p.cur)
	p.Recomputes++
}

// HandleUpdate is the Maintenance Phase entry point.
func (p *FTRP2D) HandleUpdate(id stream.ID, pt Point) {
	if p.cur.Contains(pt) {
		if !p.ans[id] {
			p.ans[id] = true
			p.count++
		}
	} else if p.ans[id] {
		delete(p.ans, id)
		if p.count > 0 {
			p.count--
		} else {
			p.fixError()
		}
	}
	p.checkWindow()
}

func (p *FTRP2D) fixError() {
	if len(p.fp) > 0 {
		sy := minKey2D(p.fp)
		py := p.h.Probe(sy)
		delete(p.fp, sy)
		if p.cur.Contains(py) {
			p.ans[sy] = true
			p.h.Install(sy, p.cur, true)
			return
		}
		delete(p.ans, sy)
		p.h.Install(sy, p.cur, false)
	}
	if len(p.fn) > 0 {
		sz := minKey2D(p.fn)
		pz := p.h.Probe(sz)
		delete(p.fn, sz)
		inside := p.cur.Contains(pz)
		if inside {
			p.ans[sz] = true
		}
		p.h.Install(sz, p.cur, inside)
	}
}

func (p *FTRP2D) checkWindow() {
	if n := len(p.ans); n >= p.minA && n <= p.maxA {
		return
	}
	p.ptsBuf = p.h.ProbeAllInto(p.ptsBuf)
	p.rebuild()
}

func minKey2D(m map[int]bool) int {
	best, ok := 0, false
	for id := range m {
		if !ok || id < best {
			best, ok = id, true
		}
	}
	return best
}
