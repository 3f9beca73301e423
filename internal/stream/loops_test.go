package stream

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
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
// sequence. got takes every batch install through InstallAllExcept
// or InstallEach; ref takes it as a per-source Install(id, c, c.Contains(
// believed[id])) loop, the rule the batch loops shortcut. Reports must
// match in id, value and order, and the sources in what each one means
// (sourceState) after every op — and every source must keep the
// crossing-side invariant. How a source is stored (the broadcast
// constraint or an exception) is not compared: got's broadcasts are
// stored once, ref's never.
type loopHarness[V comparable, C filter.Of[V, C]] struct {
	t        *testing.T
	n        int
	got, ref Sources[V, C]
	believed []V
	gotRep   []loopReport[V]
	refRep   []loopReport[V]
	uplink   func(ID, V)
}

// sourceState is what one source means: its value, its constraint, its
// recorded side and how it reacts to an update (a broadcast source reacts
// as a crossing one).
type sourceState[V comparable, C filter.Of[V, C]] struct {
	val    V
	cons   C
	inside bool
	mode   mode
}

func (s *Sources[V, C]) state(id ID) sourceState[V, C] {
	m := s.modes[id]
	if m == broadcast {
		m = crossing
	}
	return sourceState[V, C]{s.vals[id], s.Constraint(id), s.inside[id], m}
}

// same compares two states, the constraints bit for bit.
func (a sourceState[V, C]) same(b sourceState[V, C]) bool {
	return a.val == b.val && a.cons.Same(b.cons) && a.inside == b.inside && a.mode == b.mode
}

// loopSize reads the stream count: a first byte below 192 picks 1…16
// sources whose values come from the fuzz bytes; one of 192 or above picks
// 16…205 in steps of 3 — past InstallEach's chunk of 64 — whose values
// come from a generator seeded by the next byte, so that a short input
// still reaches its ops.
func loopSize(r *byteReader) (n int, values *byteReader) {
	b := r.next()
	if b < 192 {
		return 1 + int(b%16), r
	}
	n = 16 + 3*int(b-192)
	data := make([]byte, 2*n)
	rand.New(rand.NewSource(int64(r.next()))).Read(data)
	return n, &byteReader{data: data}
}

func runLoops[V comparable, C filter.Of[V, C]](t *testing.T, gen loopGen[V, C], data []byte) {
	r := &byteReader{data: data}
	n, init := loopSize(r)
	initial, believed := make([]V, n), make([]V, n)
	for i := range initial {
		initial[i] = gen.value(init.next())
		believed[i] = gen.near(initial[i], init.next())
	}
	h := &loopHarness[V, C]{t: t, n: n,
		got: NewSources[V, C](initial), ref: NewSources[V, C](initial), believed: believed}
	h.uplink = func(id ID, v V) { h.gotRep = append(h.gotRep, loopReport[V]{id, v}) }
	for step := 0; len(r.data) > 0; step++ {
		b := r.next()
		op := b % 8
		// An op byte of 128 or more makes Install and InstallEach hand
		// out got's broadcast constraint instead of one read from the
		// bytes: Fix_Error's re-install of the deployed region.
		cons := func() C {
			if b >= 128 {
				return h.got.def
			}
			return gen.cons(r)
		}
		switch op {
		case 0: // Set; a silent constraint never owes a report
			id, v := int(r.next())%n, gen.value(r.next())
			c := h.got.Constraint(id)
			if a, b := h.got.Set(id, v), h.ref.Set(id, v); a != b {
				t.Fatalf("step %d: Set(%v) on source %d: %v vs %v", step, v, id, a, b)
			} else if a && c.Silent() {
				t.Fatalf("step %d: Set(%v) on source %d reported through silent %v", step, v, id, c)
			} else if a {
				h.gotRep = append(h.gotRep, loopReport[V]{id, v})
				h.refRep = append(h.refRep, loopReport[V]{id, v})
			}
		case 1: // Install, sometimes with a wrong expectation
			id, c := int(r.next())%n, cons()
			expect := c.Contains(h.believed[id])
			if r.next()%4 == 0 {
				expect = !expect
			}
			want := owes(c, h.got.vals[id], expect)
			if h.got.Install(id, c, expect) {
				h.uplink(id, h.got.vals[id])
			}
			h.refInstall(step, id, c, expect, want)
		case 2: // InstallAllExcept, skipping nothing
			c := gen.cons(r)
			h.got.InstallAllExcept(nil, h.believed, c, h.uplink)
			for id := range n {
				h.refInstall(step, id, c, c.Contains(h.believed[id]), owes(c, h.ref.vals[id], c.Contains(h.believed[id])))
			}
		case 3: // InstallEach over a subset, ascending, descending or rotated
			ids, c := loopSubset(r, n), cons()
			h.got.InstallEach(ids, h.believed, c, h.uplink)
			for _, id := range ids {
				h.refInstall(step, id, c, c.Contains(h.believed[id]), owes(c, h.ref.vals[id], c.Contains(h.believed[id])))
			}
		case 4: // Probe
			id := int(r.next()) % n
			if a, b := h.got.Value(id), h.ref.Value(id); a != b {
				t.Fatalf("step %d: Value(%d) = %v vs %v", step, id, a, b)
			}
		case 5: // export/import round trip: the same bytes from both
			if got, ref := export(&h.got), export(&h.ref); !bytes.Equal(got, ref) {
				t.Fatalf("step %d: got exports %x, reference %x", step, got, ref)
			}
			h.roundTrip(step, &h.got)
			h.roundTrip(step, &h.ref)
		case 6: // the server's belief moves to the value or one step off it
			id := int(r.next()) % n
			h.believed[id] = gen.near(h.got.vals[id], r.next())
		case 7: // InstallAllExcept, skipping a subset
			skip, c := loopSubset(r, n), gen.cons(r)
			slices.Sort(skip)
			h.got.InstallAllExcept(skip, h.believed, c, h.uplink)
			for id := range n {
				if !slices.Contains(skip, id) {
					h.refInstall(step, id, c, c.Contains(h.believed[id]), owes(c, h.ref.vals[id], c.Contains(h.believed[id])))
				}
			}
		}
		h.check(step, op)
	}
}

// loopSubset reads an InstallEach list over n streams: two bytes are a
// mask over id mod 16, and an order byte lists them ascending or
// descending (bit 0), rotated by a third of their length (bit 1).
func loopSubset(r *byteReader, n int) []ID {
	mask, order := int(r.next())|int(r.next())<<8, r.next()
	var ids []ID
	for id := 0; id < n; id++ {
		if mask&(1<<(id%16)) != 0 {
			ids = append(ids, id)
		}
	}
	if order&1 == 1 {
		slices.Reverse(ids)
	}
	if order&2 != 0 {
		k := len(ids) / 3
		ids = append(ids[k:], ids[:k]...)
	}
	return ids
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
	got := h.ref.Install(id, c, expect)
	if got != want {
		h.t.Fatalf("step %d: Install(%v, expect=%v) at value %v on source %d owed %v, want %v",
			step, c, expect, h.ref.vals[id], id, got, want)
	}
	if got {
		h.refRep = append(h.refRep, loopReport[V]{id, h.ref.vals[id]})
	}
}

func export[V comparable, C filter.Of[V, C]](s *Sources[V, C]) []byte {
	w := snapshot.NewWriter()
	s.ExportState(w)
	return w.Bytes()
}

// roundTrip exports every source and imports them into a fresh set, which
// must succeed, change nothing and export the same bytes; a crossing-mode
// record with its side flipped must be refused.
func (h *loopHarness[V, C]) roundTrip(step int, sources *Sources[V, C]) {
	data := export(sources)
	back := NewSources[V, C](make([]V, h.n))
	r := snapshot.NewReader(data)
	if err := back.ImportState(r); err != nil {
		h.t.Fatalf("step %d: round trip: %v", step, err)
	}
	if err := r.Done(); err != nil {
		h.t.Fatalf("step %d: round trip: %v", step, err)
	}
	if again := export(&back); !bytes.Equal(again, data) {
		h.t.Fatalf("step %d: round trip exports %x, was %x", step, again, data)
	}
	for i := range h.n {
		st := sources.state(i)
		if !back.state(i).same(st) {
			h.t.Fatalf("step %d: source %d round trip %v, was %v", step, i, back.String(i), sources.String(i))
		}
		if st.mode == crossing {
			w := snapshot.NewWriter()
			st.cons.ExportValue(w, st.val)
			st.cons.ExportState(w)
			w.Bool(!st.inside)
			flipped := NewSources[V, C](make([]V, 1))
			if err := flipped.ImportState(snapshot.NewReader(w.Bytes())); err == nil {
				h.t.Fatalf("step %d: source %d imported a contradicted side", step, i)
			}
		}
	}
	*sources = back
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
	s := &h.got
	for i := range h.n {
		got, ref := s.state(i), h.ref.state(i)
		if !got.same(ref) {
			t.Fatalf("step %d (op %d): source %d is %v (mode %d), reference %v (mode %d)",
				step, op, i, s.String(i), got.mode, h.ref.String(i), ref.mode)
		}
		switch got.mode {
		case crossing:
			if got.inside != got.cons.Contains(got.val) {
				t.Fatalf("step %d (op %d): source %d records inside=%v, but %v puts %v on the other side",
					step, op, i, got.inside, got.cons, got.val)
			}
		case following:
			if !got.inside || !got.cons.Contains(got.val) {
				t.Fatalf("step %d (op %d): following source %d outside its band: %v", step, op, i, s.String(i))
			}
		case unfiltered:
			if got.inside {
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

// FuzzInstallLoops checks the batch installs (InstallAllExcept,
// InstallEach) against a per-source Install loop, and Install against the
// handshake's specification, over 1…16 sources or up to 205 (past
// InstallEach's chunk) on a ½-grid with ±Inf at its ends and a believed
// table one step stale or exact, every 1-D constraint kind, re-installs of
// the broadcast constraint, skip lists naming sources under it, Set (never
// reporting through a silent constraint), probes and snapshot round trips
// whose bytes equal the reference's.
func FuzzInstallLoops(f *testing.F) {
	f.Add([]byte{5, 8, 0, 9, 1, 10, 2, 11, 0, 12, 1, 2, 0, 8, 4, 3, 255, 0, 0, 6, 8, 2, 1, 2, 3, 5, 0, 1, 18})
	f.Add([]byte{15, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
		10, 11, 2, 0, 9, 4, 2, 4, 0, 0, 2, 3, 0, 0, 0, 18, 2, 0, 3, 6, 1, 3, 1, 0, 10, 2, 1, 5, 3, 7, 255, 1, 0, 8, 3})
	f.Add([]byte{3, 17, 1, 8, 0, 25, 2, 1, 4, 0, 8, 0, 2, 5, 0, 0, 0, 0, 18, 3, 7, 0, 0, 0, 0, 1, 0, 3, 0, 0, 0})
	// One source at 0 that the server believes at 0.5, handed [0.5, 0.5]
	// by InstallAllExcept and by InstallEach: the stale side owes a report.
	f.Add([]byte{0, 8, 1, 2, 0, 9, 0})
	f.Add([]byte{0, 8, 1, 3, 1, 0, 0, 0, 9, 0})
	// One source at 0 under Shut = [+∞, +∞] moving to +∞: no report.
	f.Add([]byte{0, 8, 0, 1, 0, 4, 0, 0, 1, 0, 0, 18})
	// 205 and 103 sources: InstallEach over every id (two full chunks and
	// a tail), descending and rotated, and over half the ids; InstallAllExcept;
	// a stale belief; a round trip.
	f.Add([]byte{255, 7, 3, 255, 255, 3, 0, 9, 4, 3, 255, 255, 0, 1, 12, 2, 2, 0, 6, 3, 6, 40, 1, 2, 0, 9, 5, 5})
	f.Add([]byte{221, 1, 3, 85, 85, 0, 1, 8, 6, 2, 0, 12, 3, 0, 90, 19, 3, 170, 170, 2, 5, 0, 0, 5, 2, 1, 4, 3})
	// 103 sources: InstallAllExcept skipping a quarter of the ids, under a
	// stale belief, then skipping none.
	f.Add([]byte{221, 4, 6, 7, 3, 7, 17, 17, 1, 0, 8, 6, 7, 0, 0, 0, 1, 9, 4})
	// Six sources broadcast [0, 2], then [1, 2] skipping 1, 3 and 5, which
	// stay under [0, 2]: source 1 leaves it, source 3 stays inside; a round
	// trip; [-1, 0.5] skipping 0 and 1; a round trip.
	f.Add([]byte{5, 8, 0, 9, 1, 10, 2, 11, 0, 12, 1, 7, 0, 2, 0, 8, 4, 7, 42, 0, 0, 0, 10, 2,
		0, 1, 4, 0, 3, 12, 5, 7, 3, 0, 1, 0, 6, 3, 5})
	// [0, 2] broadcast, then re-installed by Install (once with a wrong
	// expectation) and by InstallEach over every source; a Set; [2, 2.5]
	// skipping 0 and 2; a round trip.
	f.Add([]byte{5, 8, 0, 9, 1, 10, 2, 11, 0, 12, 1, 7, 0, 2, 0, 8, 4, 129, 2, 1, 129, 3, 0,
		131, 255, 0, 2, 0, 2, 3, 7, 5, 0, 0, 0, 12, 1, 5})
	// A broadcast beside a band and two Shut exceptions, round-tripped mid
	// sequence; a Set, a new broadcast and a round trip; a stale belief, a
	// broadcast skipping 1 and 2 and another round trip.
	f.Add([]byte{5, 8, 0, 9, 1, 10, 2, 11, 0, 12, 1, 7, 0, 2, 0, 8, 4, 1, 4, 1, 9, 6, 1,
		3, 9, 0, 0, 4, 0, 0, 5, 0, 0, 5, 2, 0, 7, 3, 5, 6, 2, 1, 7, 6, 0, 1, 0, 8, 6, 5})
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

// TestInstallAllExceptRefusesUnsortedSkip: a skip list that is not
// strictly ascending — out of order, or with a repeat — is a caller bug,
// and panics under a crossing constraint and under every other kind.
func TestInstallAllExceptRefusesUnsortedSkip(t *testing.T) {
	for _, c := range []filter.Constraint{filter.NewInterval(1, 2), filter.NoFilter(), filter.NewBand(0, 1)} {
		for _, skip := range [][]ID{{3, 1}, {2, 2}} {
			s := New(0, 1, 2, 3, 4)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%v: skip %v accepted", c, skip)
					}
				}()
				s.InstallAllExcept(skip, s.vals, c, func(ID, float64) {})
			}()
		}
	}
}
