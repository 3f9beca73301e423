package stream

import (
	"math"
	"math/rand"
	"testing"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/snapshot"
)

// loopGen draws a harness's values and constraints from fuzz bytes.
type loopGen[V, C any] struct {
	value func(b byte) V      // a value on the ½-grid (ties common)
	near  func(v V, b byte) V // v itself, or one grid step off it
	cons  func(r *byteReader) C
}

// byteReader hands out fuzz bytes, then zeros once they run out.
type byteReader struct{ data []byte }

func (r *byteReader) next() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

type loopReport[V any] struct {
	id ID
	v  V
}

// loopHarness drives two copies of the same sources through one op
// sequence. got takes every batch install through InstallAll or
// InstallEach; ref takes it as a per-source Install(c, c.Contains(
// believed[id])) loop, the rule the batch loops shortcut. Reports must
// match in id, value and order, and the sources field by field, after
// every op — and every source must keep the crossing-side invariant.
type loopHarness[V comparable, C interface {
	comparable
	filter.Of[V, C]
}] struct {
	t        *testing.T
	got, ref []Source[V, C]
	believed []V
	gotRep   []loopReport[V]
	refRep   []loopReport[V]
	uplink   func(ID, V)
}

func runLoops[V comparable, C interface {
	comparable
	filter.Of[V, C]
}](t *testing.T, gen loopGen[V, C], data []byte) {
	r := &byteReader{data: data}
	n := 1 + int(r.next()%16)
	h := &loopHarness[V, C]{t: t,
		got: make([]Source[V, C], n), ref: make([]Source[V, C], n), believed: make([]V, n)}
	h.uplink = func(id ID, v V) { h.gotRep = append(h.gotRep, loopReport[V]{id, v}) }
	for i := range h.got {
		h.got[i] = NewSource[V, C](gen.value(r.next()))
		h.ref[i] = h.got[i]
		h.believed[i] = gen.near(h.got[i].val, r.next())
	}
	for step := 0; len(r.data) > 0; step++ {
		op := r.next() % 7
		switch op {
		case 0: // Set; a silent constraint never owes a report
			id, v := int(r.next())%n, gen.value(r.next())
			c := h.got[id].cons
			if a, b := h.got[id].Set(v), h.ref[id].Set(v); a != b {
				t.Fatalf("step %d: Set(%v) on source %d: %v vs %v", step, v, id, a, b)
			} else if a && c.Silent() {
				t.Fatalf("step %d: Set(%v) on source %d reported through silent %v", step, v, id, c)
			} else if a {
				h.gotRep = append(h.gotRep, loopReport[V]{id, v})
				h.refRep = append(h.refRep, loopReport[V]{id, v})
			}
		case 1: // Install, sometimes with a wrong expectation
			id, c := int(r.next())%n, gen.cons(r)
			expect := c.Contains(h.believed[id])
			if r.next()%4 == 0 {
				expect = !expect
			}
			want := owes(c, h.got[id].val, expect)
			if h.got[id].Install(c, expect) {
				h.uplink(id, h.got[id].val)
			}
			h.refInstall(step, id, c, expect, want)
		case 2: // InstallAll
			c := gen.cons(r)
			InstallAll(h.got, h.believed, c, h.uplink)
			for id := range h.ref {
				h.refInstall(step, id, c, c.Contains(h.believed[id]), owes(c, h.ref[id].val, c.Contains(h.believed[id])))
			}
		case 3: // InstallEach over a subset, ascending or descending
			mask, desc, c := int(r.next())|int(r.next())<<8, r.next()%2 == 1, gen.cons(r)
			var ids []ID
			for id := 0; id < n; id++ {
				if mask&(1<<id) != 0 {
					ids = append(ids, id)
				}
			}
			if desc {
				for i, j := 0, len(ids)-1; i < j; i, j = i+1, j-1 {
					ids[i], ids[j] = ids[j], ids[i]
				}
			}
			InstallEach(h.got, ids, h.believed, c, h.uplink)
			for _, id := range ids {
				h.refInstall(step, id, c, c.Contains(h.believed[id]), owes(c, h.ref[id].val, c.Contains(h.believed[id])))
			}
		case 4: // Probe
			id := int(r.next()) % n
			if a, b := h.got[id].Probe(), h.ref[id].Probe(); a != b {
				t.Fatalf("step %d: Probe(%d) = %v vs %v", step, id, a, b)
			}
		case 5: // export/import round trip
			h.roundTrip(step, h.got)
			h.roundTrip(step, h.ref)
		case 6: // the server's belief moves to the value or one step off it
			id := int(r.next()) % n
			h.believed[id] = gen.near(h.got[id].val, r.next())
		}
		h.check(step, op)
	}
}

// owes is the install handshake's specification, written out independently
// of the source: an unfiltered stream owes nothing, a following one owes a
// report when its value is outside the band it is handed, and a crossing
// one when its true side differs from the expected side — unless the
// constraint is silent.
func owes[V any, C filter.Of[V, C]](c C, val V, expect bool) bool {
	if c.Unfiltered() {
		return false
	}
	if _, ok := c.Recentre(val); ok {
		return !c.Contains(val)
	}
	return c.Contains(val) != expect && !c.Silent()
}

// refInstall installs c on ref source id, checks the owed report against
// the specification and queues it.
func (h *loopHarness[V, C]) refInstall(step int, id ID, c C, expect, want bool) {
	s := &h.ref[id]
	got := s.Install(c, expect)
	if got != want {
		h.t.Fatalf("step %d: Install(%v, expect=%v) at value %v on source %d owed %v, want %v",
			step, c, expect, s.val, id, got, want)
	}
	if got {
		h.refRep = append(h.refRep, loopReport[V]{id, s.val})
	}
}

// roundTrip exports every source and imports it into a fresh one, which
// must succeed and change nothing; a crossing-mode record with its side
// flipped must be refused.
func (h *loopHarness[V, C]) roundTrip(step int, sources []Source[V, C]) {
	for i := range sources {
		w := snapshot.NewWriter()
		sources[i].ExportState(w)
		var back Source[V, C]
		r := snapshot.NewReader(w.Bytes())
		if err := back.ImportState(r); err != nil {
			h.t.Fatalf("step %d: source %d round trip: %v", step, i, err)
		}
		if err := r.Done(); err != nil {
			h.t.Fatalf("step %d: source %d round trip: %v", step, i, err)
		}
		if back != sources[i] {
			h.t.Fatalf("step %d: source %d round trip %v, was %v", step, i, &back, &sources[i])
		}
		if sources[i].mode == crossing {
			flipped := sources[i]
			flipped.inside = !flipped.inside
			w := snapshot.NewWriter()
			flipped.ExportState(w)
			if err := back.ImportState(snapshot.NewReader(w.Bytes())); err == nil {
				h.t.Fatalf("step %d: source %d imported a contradicted side", step, i)
			}
		}
		sources[i] = back
	}
}

func (h *loopHarness[V, C]) check(step int, op byte) {
	t := h.t
	if len(h.gotRep) != len(h.refRep) {
		t.Fatalf("step %d (op %d): %d reports, reference %d", step, op, len(h.gotRep), len(h.refRep))
	}
	for i := range h.gotRep {
		if h.gotRep[i] != h.refRep[i] {
			t.Fatalf("step %d (op %d): report %d is %v, reference %v", step, op, i, h.gotRep[i], h.refRep[i])
		}
	}
	for i := range h.got {
		if h.got[i] != h.ref[i] {
			t.Fatalf("step %d (op %d): source %d is %v, reference %v (updates %d/%d, reports %d/%d)",
				step, op, i, &h.got[i], &h.ref[i], h.got[i].Updates, h.ref[i].Updates, h.got[i].Reports, h.ref[i].Reports)
		}
		s := &h.got[i]
		switch s.mode {
		case crossing:
			if s.inside != s.cons.Contains(s.val) {
				t.Fatalf("step %d (op %d): source %d records inside=%v, but %v puts %v on the other side",
					step, op, i, s.inside, s.cons, s.val)
			}
		case following:
			if !s.inside || !s.cons.Contains(s.val) {
				t.Fatalf("step %d (op %d): following source %d outside its band: %v", step, op, i, s)
			}
		case unfiltered:
			if s.inside {
				t.Fatalf("step %d (op %d): unfiltered source %d records inside", step, op, i)
			}
		}
	}
}

// gridValue maps a byte onto the ½-grid −4…4, with −0 beside +0 and ±Inf
// at the ends (a shut [+∞, +∞] contains +∞).
func gridValue(b byte) float64 {
	switch k := int(b % 20); k {
	case 17:
		return math.Copysign(0, -1)
	case 18:
		return math.Inf(1)
	case 19:
		return math.Inf(-1)
	default:
		return float64(k-8) * 0.5
	}
}

var scalarGen = loopGen[float64, filter.Constraint]{
	value: gridValue,
	near: func(v float64, b byte) float64 {
		switch b % 3 {
		case 1:
			return v + 0.5
		case 2:
			return v - 0.5
		}
		return v
	},
	cons: func(r *byteReader) filter.Constraint {
		kind, lo, w := r.next()%6, float64(int(r.next()%17)-8)*0.5, float64(r.next()%8)*0.5
		switch kind {
		case 0:
			return filter.NewInterval(lo, lo+w)
		case 1:
			return filter.NewBand(lo, w)
		case 2:
			return filter.NoFilter()
		case 3:
			return filter.WideOpen()
		case 4:
			return filter.Shut()
		default:
			return filter.NewInterval(lo+w+0.5, lo) // inverted: empty, hence silent
		}
	},
}

// FuzzInstallLoops checks the batch installs (InstallAll, InstallEach)
// against a per-source Install loop, and Install against the handshake's
// specification, over up to 16 sources on a ½-grid with ±Inf at its ends
// and a believed table one step stale or exact, every 1-D constraint kind,
// Set (never reporting through a silent constraint), Probe and snapshot
// round trips.
func FuzzInstallLoops(f *testing.F) {
	f.Add([]byte{5, 8, 0, 9, 1, 10, 2, 11, 0, 12, 1, 2, 0, 8, 4, 3, 255, 0, 0, 6, 8, 2, 1, 2, 3, 5, 0, 1, 18})
	f.Add([]byte{15, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
		10, 11, 2, 0, 9, 4, 2, 4, 0, 0, 2, 3, 0, 0, 0, 18, 2, 0, 3, 6, 1, 3, 1, 0, 10, 2, 1, 5, 3, 7, 255, 1, 0, 8, 3})
	f.Add([]byte{3, 17, 1, 8, 0, 25, 2, 1, 4, 0, 8, 0, 2, 5, 0, 0, 0, 0, 18, 3, 7, 0, 0, 0, 0, 1, 0, 3, 0, 0, 0})
	// One source at 0 that the server believes at 0.5, handed [0.5, 0.5]
	// by InstallAll and by InstallEach: the stale side owes a report.
	f.Add([]byte{0, 8, 1, 2, 0, 9, 0})
	f.Add([]byte{0, 8, 1, 3, 1, 0, 0, 0, 9, 0})
	// One source at 0 under Shut = [+∞, +∞] moving to +∞: no report.
	f.Add([]byte{0, 8, 0, 1, 0, 4, 0, 0, 1, 0, 0, 18})
	f.Fuzz(func(t *testing.T, data []byte) { runLoops(t, scalarGen, data) })
}

var planarGen = loopGen[filter.Point, filter.Region]{
	value: func(b byte) filter.Point {
		return filter.Point{X: float64(int(b&15)-8) * 0.5, Y: float64(int(b>>4)-8) * 0.5}
	},
	near: func(p filter.Point, b byte) filter.Point {
		switch b % 5 {
		case 1:
			p.X += 0.5
		case 2:
			p.X -= 0.5
		case 3:
			p.Y += 0.5
		case 4:
			p.Y -= 0.5
		}
		return p
	},
	cons: func(r *byteReader) filter.Region {
		kind, cb, w := r.next()%6, r.next(), r.next()
		c := filter.Point{X: float64(int(cb&15)-8) * 0.5, Y: float64(int(cb>>4)-8) * 0.5}
		switch kind {
		case 0:
			return filter.NewDisk(c, float64(w%8)*0.5)
		case 1:
			return filter.NewRect(c, float64(w&7)*0.5, float64(w>>3&7)*0.5)
		case 2:
			return filter.NoRegion()
		case 3:
			return filter.WideOpenRegion(c)
		case 4:
			return filter.ShutRegion(c)
		default:
			return filter.NewRect(c, -0.5, float64(w&7)*0.5) // empty: shut
		}
	},
}

// TestInstallLoopsPlanar is FuzzInstallLoops' planar twin over disks and
// rectangles, on seeded random op sequences.
func TestInstallLoopsPlanar(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for run := 0; run < 300; run++ {
		data := make([]byte, 32+rng.Intn(256))
		rng.Read(data)
		runLoops(t, planarGen, data)
	}
}
