package server

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/snapshot"
	"adaptivefilters/internal/stream"
)

type nopProto struct{}

func (nopProto) Name() string                    { return "nop" }
func (nopProto) Initialize()                     {}
func (nopProto) HandleUpdate(stream.ID, float64) {}
func (nopProto) Answer() []stream.ID             { return nil }

// Stateless, so its snapshot state is empty (the restore cut below needs a
// StatefulProtocol).
func (nopProto) ExportState(*snapshot.Writer)       {}
func (nopProto) ImportState(*snapshot.Reader) error { return nil }

// drivenProto is nopProto implementing CrossingDriven, so the dispatch
// bookkeeping has both kinds of slot to file. It keeps the contract: its
// HandleUpdate is one server op and a Crossed that changes nothing.
type drivenProto struct {
	nopProto
	h Host
}

func (p drivenProto) HandleUpdate(s stream.ID, v float64) {
	p.h.AddServerOps(1)
	p.Crossed(s, v)
}

func (drivenProto) Crossed(stream.ID, float64) {}

// checkSet fails unless b is a words(slots)-long bitmap with no bit at or
// beyond slots.
func checkSet(t *testing.T, what string, b slotSet, slots int) {
	t.Helper()
	if len(b) != words(slots) {
		t.Fatalf("%s: %d words for %d slots", what, len(b), slots)
	}
	for qi := slots; qi < len(b)*64; qi++ {
		if b.has(qi) {
			t.Fatalf("%s: bit %d set beyond %d slots", what, qi, slots)
		}
	}
}

// checkDispatch recounts the dispatch bookkeeping from the slots: the
// CrossingDriven mask, the mask of every other live slot, the dense
// column of CrossingDriven protocols, and the LiveQueries they add up to.
func checkDispatch(t *testing.T, c *Composite) {
	t.Helper()
	slots := len(c.queries)
	checkSet(t, "drivenMask", c.drivenMask, slots)
	checkSet(t, "othersMask", c.othersMask, slots)
	if len(c.crossers) != slots {
		t.Fatalf("crossers holds %d entries for %d slots", len(c.crossers), slots)
	}
	live := 0
	for qi, q := range c.queries {
		isDriven, isOther := false, false
		var want CrossingDriven
		if q != nil {
			live++
			want, isDriven = q.proto.(CrossingDriven)
			isOther = !isDriven
		}
		if c.drivenMask.has(qi) != isDriven || c.othersMask.has(qi) != isOther {
			t.Fatalf("slot %d: driven/others bits %v/%v, recount %v/%v",
				qi, c.drivenMask.has(qi), c.othersMask.has(qi), isDriven, isOther)
		}
		if c.crossers[qi] != want {
			t.Fatalf("slot %d: crossers entry %v, recount %v", qi, c.crossers[qi], want)
		}
	}
	if c.LiveQueries() != live {
		t.Fatalf("LiveQueries = %d, recount %d", c.LiveQueries(), live)
	}
}

// shadow is a dense copy of every entry a test installed in a composite:
// sh[s][qi] is what stream s's entry for slot qi must read back as. Its
// methods mirror the composite's ops as documented — a band re-centres by
// the linear scan's own rule — so checkIndex audits the query index, the
// composite's one store of entries, against a matrix kept apart from it.
// The test protocols never install from maintenance, so the ops a test
// drives are all the installs there are.
type shadow [][]filter.Constraint

// addSlot mirrors AddQuery: an unfiltered entry at every stream.
func (sh shadow) addSlot() {
	for s := range sh {
		sh[s] = append(sh[s], filter.NoFilter())
	}
}

// removeSlot mirrors RemoveQuery: the zero constraint at every stream.
func (sh shadow) removeSlot(qi int) {
	for s := range sh {
		sh[s][qi] = filter.Constraint{}
	}
}

// installAll mirrors InstallAllExcept.
func (sh shadow) installAll(qi int, skip []stream.ID, cons filter.Constraint) {
	for s := range sh {
		if !slices.Contains(skip, s) {
			sh[s][qi] = cons
		}
	}
}

// deliver mirrors Deliver's band rule for a move of stream s to v: a band
// that no longer contains v is re-centred on it.
func (sh shadow) deliver(s int, v float64) {
	for qi, e := range sh[s] {
		if e.Kind == filter.Band && !e.Contains(v) {
			sh[s][qi] = filter.NewBand(v, e.BandHalfWidth())
		}
	}
}

// category returns slot qi's category in one layer (an unsized classOf
// files nothing).
func category(cl *classes, qi int) int32 {
	if cl.classOf == nil {
		return catNone
	}
	return cl.classOf[qi]
}

// checkIndex verifies the query index against sh, the entries the test
// installed, and its full structural invariant set, layer by layer. The
// store: every entry reads back bit-exact through Constraint. The shared
// layer: each live slot's default is filed once (never a band), its
// classes are exact and its key list is exact and sorted. The per-stream
// layer: the finger equals the count of shared keys below the stream's
// value, an override bit is set exactly when the entry differs from its
// default, the flags match, and the stream files only its exceptions, each
// in the class of its bits (classes, boundary keys and finger, bands).
// Then the dispatch bookkeeping.
func checkIndex(t *testing.T, c *Composite, sh shadow) {
	t.Helper()
	x := &c.idx
	checkDispatch(t, c)
	slots := len(c.queries)
	if x.words != words(slots) || len(x.fired) != x.words {
		t.Fatalf("index stride %d, fired %d words, for %d slots", x.words, len(x.fired), slots)
	}
	if len(sh) != c.N() {
		t.Fatalf("shadow holds %d streams, composite %d", len(sh), c.N())
	}
	for s, row := range sh {
		if len(row) != slots {
			t.Fatalf("shadow stream %d holds %d entries for %d slots", s, len(row), slots)
		}
		for qi, want := range row {
			if got := c.Constraint(s, qi); !got.Same(want) {
				t.Fatalf("stream %d slot %d: entry %v, installed %v", s, qi, got, want)
			}
		}
	}
	d := &x.def
	if len(d.cons) != slots || len(d.classOf) != slots || len(x.novr) != slots {
		t.Fatalf("shared layer sized %d/%d/%d for %d slots", len(d.cons), len(d.classOf), len(x.novr), slots)
	}
	checkSet(t, "default always", d.always, slots)
	alwaysDefault := make(slotSet, x.words)
	for qi, q := range c.queries {
		if q != nil && d.cons[qi].Kind == filter.Band {
			t.Fatalf("slot %d: band default %v", qi, d.cons[qi])
		}
		if q != nil && d.cons[qi].Kind == filter.None {
			alwaysDefault.put(qi, true)
		}
	}
	if !slices.Equal(d.always, alwaysDefault) {
		t.Fatalf("default always %b, want %b", d.always, alwaysDefault)
	}
	live := func(qi int) bool { return c.queries[qi] != nil }
	sharedKeys := checkClasses(t, "shared layer", &d.classes, slots, x.words, live, d.cons, false)
	checkKeys(t, "shared layer", d.keys, sharedKeys)
	ovrCount := make([]int32, slots)
	for s := range x.streams {
		st := &x.streams[s]
		where := fmt.Sprintf("stream %d", s)
		o := x.overrides(s)
		checkSet(t, where+" overrides", o, slots)
		entries := make([]filter.Constraint, slots)
		unfiltered := false
		for qi := range c.queries {
			cons := sh[s][qi]
			differs := live(qi) && !cons.Same(d.cons[qi])
			if o.has(qi) != differs {
				t.Fatalf("%s slot %d: override bit %v, entry %v, default %v", where, qi, o.has(qi), cons, d.cons[qi])
			}
			if differs {
				ovrCount[qi]++
				entries[qi] = cons
			}
			unfiltered = unfiltered || live(qi) && cons.Kind == filter.None
		}
		if st.classOf != nil && len(st.classOf) != slots {
			t.Fatalf("%s: classOf sized %d, want %d", where, len(st.classOf), slots)
		}
		own := checkClasses(t, where, &st.classes, slots, x.words, o.has, entries, true)
		always, bands := 0, []int32(nil)
		for qi := range c.queries {
			if o.has(qi) && entries[qi].Kind == filter.None {
				always++
			}
		}
		if always != st.always {
			t.Fatalf("%s: always = %d, want %d", where, st.always, always)
		}
		var keys []bkey
		for _, k := range own {
			if k.id < 0 {
				bands = append(bands, -1-k.id)
			} else {
				keys = append(keys, k)
			}
		}
		checkKeys(t, where, st.bounds.keys, keys)
		if gotBands := slices.Sorted(slices.Values(st.bands)); !slices.Equal(gotBands, bands) {
			t.Fatalf("%s: band list %v, want the live band classes %v", where, st.bands, bands)
		}
		// The fingers: exactly the keys below the current value precede
		// each (a NaN value lies above none). A drifted finger would
		// silently skip real crossings — behaviorally invisible until a
		// query misses an update, so it is audited structurally here.
		if below := keysBelow(d.keys, c.vals[s]); int(x.hot[s].at) != below {
			t.Fatalf("%s: shared finger at %d, but %d shared keys lie below the value %v",
				where, x.hot[s].at, below, c.vals[s])
		}
		if below := keysBelow(st.bounds.keys, c.vals[s]); int(st.bounds.at) != below {
			t.Fatalf("%s: finger at %d, but %d keys lie below the value %v", where, st.bounds.at, below, c.vals[s])
		}
		var flags uint32
		if o.count() > 0 {
			flags |= hotOvr
		}
		if len(keys) > 0 || len(bands) > 0 {
			flags |= hotLocal
		}
		if unfiltered {
			flags |= hotAll
		}
		if x.hot[s].flags != flags {
			t.Fatalf("%s: flags %03b, want %03b", where, x.hot[s].flags, flags)
		}
	}
	if !slices.Equal(x.novr, ovrCount) {
		t.Fatalf("override counts %v, recount %v", x.novr, ovrCount)
	}
}

// checkClasses audits one layer's classes against the entries it must
// file — entry[qi] for every slot filed(qi) — and returns the boundary
// keys its live interval classes own, plus a key of id -1-cid for each
// live band class. Each filed slot must sit in exactly the class of its
// constraint, and each live class must hold exactly its members; in the
// shared layer (exceptions false) a None entry counts as always and an
// entry that can never report is in no class.
func checkClasses(t *testing.T, where string, cl *classes, slots, w int, filed func(int) bool,
	entry []filter.Constraint, exceptions bool) []bkey {
	t.Helper()
	if len(cl.mem) != len(cl.cls)*w {
		t.Fatalf("%s: %d member words for %d classes", where, len(cl.mem), len(cl.cls))
	}
	members := map[int32][]int32{}
	for qi := 0; qi < slots; qi++ {
		cid := category(cl, qi)
		cons := entry[qi]
		switch {
		case !filed(qi) || !exceptions && unfiled(cons):
			if cid != catNone {
				t.Fatalf("%s slot %d: category %d, want none", where, qi, cid)
			}
		case !exceptions && cons.Kind == filter.None:
			if cid != catAlways {
				t.Fatalf("%s slot %d: category %d, want always", where, qi, cid)
			}
		default:
			if cid < 0 || int(cid) >= len(cl.cls) || !cl.cls[cid].live {
				t.Fatalf("%s slot %d: class id %d out of range or dead", where, qi, cid)
			}
			if !cl.cls[cid].cons.Same(cons) {
				t.Fatalf("%s slot %d: class %d holds %v, entry holds %v", where, qi, cid, cl.cls[cid].cons, cons)
			}
			members[cid] = append(members[cid], int32(qi))
		}
	}
	var keys []bkey
	for cid := range cl.cls {
		m := cl.members(int32(cid), w)
		checkSet(t, fmt.Sprintf("%s class %d members", where, cid), m, slots)
		var got []int32
		for qi := 0; qi < slots; qi++ {
			if m.has(qi) {
				got = append(got, int32(qi))
			}
		}
		if !slices.Equal(got, members[int32(cid)]) {
			t.Fatalf("%s class %d: members %v, entries imply %v", where, cid, got, members[int32(cid)])
		}
		cons := cl.cls[cid].cons
		switch {
		case !cl.cls[cid].live:
			if !slices.Contains(cl.free, int32(cid)) {
				t.Fatalf("%s: dead class %d is not free", where, cid)
			}
		case len(got) == 0:
			t.Fatalf("%s: live class %d is empty", where, cid)
		case cons.Kind == filter.Band:
			keys = append(keys, bkey{id: -1 - int32(cid)})
		case cons.Kind == filter.Interval && !unfiled(cons):
			keysOf(cons, func(k float64) { keys = append(keys, bkey{v: k, id: int32(cid)}) })
		}
	}
	return keys
}

// checkKeys fails unless got is strictly sorted and holds exactly want.
func checkKeys(t *testing.T, where string, got keyList, want []bkey) {
	t.Helper()
	sort.Slice(want, func(a, b int) bool { return keyLess(want[a], want[b]) })
	for i := 1; i < len(got); i++ {
		if !keyLess(got[i-1], got[i]) {
			t.Fatalf("%s: boundary keys %d,%d out of order or duplicated: %v, %v", where, i-1, i, got[i-1], got[i])
		}
	}
	if !slices.Equal(got, keyList(want)) {
		t.Fatalf("%s: boundary keys %v, want %v", where, got, want)
	}
}

// keysBelow counts the keys strictly below v.
func keysBelow(keys keyList, v float64) int {
	n := 0
	for _, k := range keys {
		if k.v < v {
			n++
		}
	}
	return n
}

// keyLess is the boundary list's strict (value, id) order.
func keyLess(a, b bkey) bool { return a.v < b.v || (a.v == b.v && a.id < b.id) }

// paletteCons is entry k (0..11) of the adversarial install palette around
// the stream value v with width w: unfiltered and silent entries, bands of
// every degeneracy, inverted and NaN-bounded intervals, and constraints
// shared across queries.
func paletteCons(k int, v, w float64) filter.Constraint {
	switch k {
	case 0:
		return filter.NoFilter()
	case 1:
		return filter.WideOpen()
	case 2:
		return filter.Shut()
	case 3:
		return filter.NewBand(v, w)
	case 4:
		return filter.NewBand(v, math.NaN())
	case 5:
		return filter.NewBand(math.Inf(1), w)
	case 6:
		return filter.NewInterval(v+w, v-w)
	case 7:
		return filter.NewInterval(math.NaN(), v)
	case 8:
		return filter.NewInterval(100, 200)
	case 9:
		return filter.NewBand(150, 25)
	default:
		return filter.NewInterval(v-w, v+w)
	}
}

// TestQueryIndexInvariants churns the index through every mutation path —
// installs from an adversarial palette (each expecting a random side, so
// the handshake reports some), deliveries (including NaN and ±Inf
// fallbacks), probes, slot addition and removal, a snapshot restore into a
// fresh composite, or a snapshot with a tampered recorded side, which
// ImportState must refuse — and fully audits the structures after every
// operation. The walk starts at 62 slots and grows past 64 and 128, so
// every bitmap runs over several words. The black-box equivalence test proves behaviour; this one
// catches silent structural leaks (stale boundary keys, leaked band
// classes) that would only show as performance decay.
func TestQueryIndexInvariants(t *testing.T) {
	const n, first, most = 6, 62, 140
	rng := rand.New(rand.NewSource(99))
	initial := make([]float64, n)
	for s := range initial {
		initial[s] = rng.NormFloat64()*40 + 150
	}
	c := NewComposite(initial)
	sh := make(shadow, n)
	build := func(seedID int64) func(Host) Protocol {
		return func(h Host) Protocol {
			if seedID%2 == 0 {
				return drivenProto{h: h}
			}
			return nopProto{}
		}
	}
	var live []int
	for qi := 0; qi < first; qi++ {
		c.AddQuery("q", int64(qi), build(int64(qi)))
		sh.addSlot()
		live = append(live, qi)
	}
	palette := func(v float64) filter.Constraint {
		w := 5 + rng.Float64()*40
		return paletteCons(rng.Intn(12), v, w)
	}
	// restore round-trips c through a snapshot. tamper flips one live
	// slot's recorded side in the bytes instead, and the restore must be
	// refused (c stays).
	restore := func(tamper bool) {
		w := snapshot.NewWriter()
		c.ExportState(w)
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		b := w.Bytes()
		if tamper {
			b[sideOffset(c, rng.Intn(n), live[rng.Intn(len(live))])] ^= 1
		}
		restored := NewComposite(initial)
		err := restored.ImportState(snapshot.NewReader(b),
			func(_ int, _ string, seedID int64, h Host) (Protocol, error) { return build(seedID)(h), nil })
		switch {
		case tamper && err == nil:
			t.Fatal("a snapshot with a contradicting side was restored")
		case !tamper && err != nil:
			t.Fatal(err)
		case !tamper:
			c = restored
		}
	}
	slots := first
	var removedLow, removedHigh, wideRestore, tampered bool
	for op := 0; op < 4000; op++ {
		switch r := rng.Intn(100); {
		case r < 35:
			s, qi := stream.ID(rng.Intn(n)), live[rng.Intn(len(live))]
			cons := palette(c.vals[s])
			c.queries[qi].view.Install(s, cons, rng.Intn(2) == 0)
			sh[s][qi] = cons
		case r < 40 && slots < most:
			c.AddQuery("q", int64(slots), build(int64(slots)))
			sh.addSlot()
			live = append(live, slots)
			slots++
		case r < 43 && len(live) > 1:
			j := rng.Intn(len(live))
			if err := c.RemoveQuery(live[j]); err != nil {
				t.Fatal(err)
			}
			sh.removeSlot(live[j])
			removedLow = removedLow || live[j] < 64
			removedHigh = removedHigh || live[j] >= 64
			live = append(live[:j], live[j+1:]...)
		case r < 45:
			tamper := rng.Intn(2) == 0
			restore(tamper)
			tampered = tampered || tamper
			wideRestore = wideRestore || slots > 64
		case r < 50:
			s := stream.ID(rng.Intn(n))
			view := &c.queries[live[rng.Intn(len(live))]].view
			if rng.Intn(2) == 0 {
				view.Probe(s)
			} else {
				view.ProbeIf(s, palette(c.vals[s]))
			}
		default:
			v := rng.NormFloat64()*40 + 150
			switch rng.Intn(30) {
			case 0:
				v = math.NaN()
			case 1:
				v = math.Inf(1)
			case 2:
				v = math.Inf(-1)
			}
			s := rng.Intn(n)
			c.Deliver(s, v)
			sh.deliver(s, v)
		}
		checkIndex(t, c, sh)
	}
	if slots <= 128 || !removedLow || !removedHigh || !wideRestore || !tampered {
		t.Fatalf("walk ended at %d slots (removed <64: %v, >=64: %v; restored past 64: %v, tampered: %v); adjust it",
			slots, removedLow, removedHigh, wideRestore, tampered)
	}
}

// sideOffset is the offset, in c's snapshot, of the side stream s records
// for slot qi: the bytes ExportState writes before that bool (a row of
// entries takes as many bytes whatever the entries are).
func sideOffset(c *Composite, s, qi int) int {
	w := snapshot.NewWriter()
	w.Int(c.N())
	w.Int(len(c.queries))
	w.Float64s(c.vals)
	w.Float64s(c.table)
	row := make([]filter.Constraint, len(c.queries))
	for t := 0; t < s; t++ {
		filter.ExportConstraints(w, row)
		w.Bools(make([]bool, len(c.queries)))
	}
	filter.ExportConstraints(w, row)
	w.Uint64(uint64(len(c.queries)))
	return w.Len() + qi
}

// TestCompositeImportRefusesContradictingSide pins that a side is derived,
// not restored: two queries share [100, 200] on one stream, and a snapshot
// whose recorded side for either contradicts the stream's value — inside
// recorded as outside, or outside as inside — is refused, while the
// untampered snapshot restores and exports the same bytes again.
func TestCompositeImportRefusesContradictingSide(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    float64
	}{{"inside", 150}, {"outside", 250}} {
		t.Run(tc.name, func(t *testing.T) {
			build := func(Host) Protocol { return nopProto{} }
			rebuild := func(_ int, _ string, _ int64, h Host) (Protocol, error) { return build(h), nil }
			c := NewComposite([]float64{tc.v})
			for qi := 0; qi < 2; qi++ {
				c.AddQuery("q", int64(qi), build)
				c.queries[qi].view.InstallAllExcept(nil, filter.NewInterval(100, 200))
			}
			w := snapshot.NewWriter()
			c.ExportState(w)
			good := w.Bytes()
			restored := NewComposite([]float64{tc.v})
			if err := restored.ImportState(snapshot.NewReader(good), rebuild); err != nil {
				t.Fatal(err)
			}
			again := snapshot.NewWriter()
			restored.ExportState(again)
			if !slices.Equal(again.Bytes(), good) {
				t.Fatal("a restored composite exports different bytes")
			}
			for qi := 0; qi < 2; qi++ {
				bad := slices.Clone(good)
				bad[sideOffset(c, 0, qi)] ^= 1
				if err := NewComposite([]float64{tc.v}).ImportState(snapshot.NewReader(bad), rebuild); err == nil {
					t.Fatalf("slot %d: a contradicting side was restored", qi)
				}
			}
		})
	}
}

// TestExceptionsKeepTheirBits gives one slot a column default plus, one
// per stream, exceptions that can never report or report every update —
// WideOpen, Shut, an inverted interval, a NaN-bounded one and an
// unfiltered entry — and a band. None of them files a boundary key, so
// only the index's store remembers them: every entry must read back
// bit-exact through Constraint, and a composite restored from the snapshot
// must read back the same entries and export the same bytes. Equivalence
// between two composites cannot catch an exception the store forgot, since
// both would forget it alike.
func TestExceptionsKeepTheirBits(t *testing.T) {
	initial := []float64{150, 150, 150, 150, 150, 150, 150}
	entries := []filter.Constraint{
		filter.NewInterval(100, 200),
		filter.WideOpen(),
		filter.Shut(),
		filter.NewInterval(200, 100),
		filter.NewInterval(math.NaN(), 120),
		filter.NoFilter(),
		filter.NewBand(150, 10),
	}
	build := func(Host) Protocol { return nopProto{} }
	c := NewComposite(initial)
	c.AddQuery("q", 0, build)
	c.queries[0].view.InstallAllExcept(nil, entries[0])
	sh := shadow{{entries[0]}, {entries[0]}, {entries[0]}, {entries[0]}, {entries[0]}, {entries[0]}, {entries[0]}}
	for s, cons := range entries[1:] {
		c.queries[0].view.Install(s+1, cons, cons.Contains(150))
		sh[s+1][0] = cons
	}
	checkIndex(t, c, sh)
	w := snapshot.NewWriter()
	c.ExportState(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	restored := NewComposite(initial)
	if err := restored.ImportState(snapshot.NewReader(w.Bytes()),
		func(int, string, int64, Host) (Protocol, error) { return nopProto{}, nil }); err != nil {
		t.Fatal(err)
	}
	checkIndex(t, restored, sh)
	again := snapshot.NewWriter()
	restored.ExportState(again)
	if !bytes.Equal(again.Bytes(), w.Bytes()) {
		t.Fatal("a restored composite exports different bytes")
	}
}

// loggedProto is drivenProto whose Crossed appends its slot to log, so a
// report is logged whether Deliver hands it over through Crossed or a
// queued report goes through HandleUpdate.
type loggedProto struct {
	drivenProto
	qi  int
	log *[]int
}

func (p loggedProto) HandleUpdate(s stream.ID, v float64) {
	p.h.AddServerOps(1)
	p.Crossed(s, v)
}

func (p loggedProto) Crossed(stream.ID, float64) { *p.log = append(*p.log, p.qi) }

// firedDriven recounts, from every live entry of a stream (row, its
// installed entries), the even-numbered (CrossingDriven) slots its move
// u→v dispatches to, in ascending order: those whose own entry fires, or
// all of them when an unfiltered entry makes the report concern every slot
// or a NaN end sends the move to the linear scan. A silent entry is never
// dispatched to.
func firedDriven(row []filter.Constraint, u, v float64, live []int) []int {
	var fired, driven []int
	unfiltered, crossed := false, false
	for _, qi := range live {
		cons := row[qi]
		unfiltered = unfiltered || cons.Kind == filter.None
		fires := cons.Kind == filter.Band && !cons.Contains(v) ||
			cons.Kind == filter.Interval && !cons.Silent() && cons.Contains(u) != cons.Contains(v)
		crossed = crossed || fires
		if qi%2 == 0 && !cons.Silent() {
			driven = append(driven, qi)
			if fires {
				fired = append(fired, qi)
			}
		}
	}
	if unfiltered || crossed && (math.IsNaN(u) || math.IsNaN(v)) {
		return driven
	}
	return fired
}

// FuzzCompositeDeliver replays a program of composite operations on a
// linear and an indexed composite and requires the same ExportState bytes
// and ServerOps after every op, auditing both composites' index with
// checkIndex against the program's shadow of its installs each time. Each op is four bytes:
//
//	byte 0  op (low 4 bits: 0-3 install, 4 InstallAllExcept(nil, …), 5 InstallAllExcept,
//	        6-11 deliver, 12 restore, 13 add, 14-15 remove a query); bit 7
//	        is an install's expected side
//	byte 1  stream; InstallAllExcept: bits 4-7 are the streams it skips
//	byte 2  install: the live slot; deliver: the value's source (0 NaN,
//	        1 +Inf, 2 -Inf, 3-4 a bound of the slot byte 3 picks, else
//	        the 2.5-grid); add: bit 0 initializes the query, and unless
//	        bits 1-2 are clear it installs its standing interval
//	byte 3  install: palette entry (low 5 bits) and width (high 3);
//	        deliver: the slot whose bound to land on, or the grid point
//
// Installs draw from TestQueryIndexInvariants' palette, around the value
// of the op's stream; an InstallAllExcept sets the slot's
// column default (a band re-files every stream instead), and the skipped
// streams keep their entries. A delivery lands on a bound of some entry,
// on ±Inf, NaN or a grid point. A restore round-trips both composites
// through their snapshot. The composites start with 60 slots, each with a
// standing interval on every stream (so streams start with boundary keys
// to cross), and a few admissions cross a bitmap word. Only the first 300
// ops run.
func FuzzCompositeDeliver(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for range 4 {
		prog := make([]byte, 4*200)
		rng.Read(prog)
		f.Add(prog)
	}
	f.Add([]byte{0, 0, 0, 8, 3, 0, 3, 0, 3, 0, 4, 0, 6, 0, 1, 0, 7, 0, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		const n, first, most = 4, 60, 140
		initial := []float64{100, 150, 200, 250}
		// The indexed composite's CrossingDriven slots log the reports
		// dispatched to them: the fired set, which the linear composite
		// never computes, is checked against a recount of every entry.
		var dispatched []int
		build := func(qi int, log *[]int) func(Host) Protocol {
			return func(h Host) Protocol {
				if qi%2 == 0 {
					return loggedProto{drivenProto{h: h}, qi, log}
				}
				return nopProto{}
			}
		}
		// A slot starts unfiltered at every stream, which makes every
		// stream report; an admitted slot can install a 100-wide interval
		// on the 10-grid everywhere instead.
		standing := func(qi int) filter.Constraint {
			lo := 50 + 10*float64(qi%20)
			return filter.NewInterval(lo, lo+100)
		}
		compose := func(indexed bool, log *[]int) *Composite {
			prev := SetQueryIndexEnabled(indexed)
			defer SetQueryIndexEnabled(prev)
			c := NewComposite(initial)
			for qi := 0; qi < first; qi++ {
				c.AddQuery("q", int64(qi), build(qi, log))
				c.queries[qi].view.InstallAllExcept(nil, standing(qi))
			}
			c.Initialize()
			return c
		}
		lin, idx := compose(false, new([]int)), compose(true, &dispatched)
		sh := make(shadow, n)
		for qi := 0; qi < first; qi++ {
			sh.addSlot()
			sh.installAll(qi, nil, standing(qi))
		}
		// restore round-trips c through its snapshot into a fresh
		// composite, indexed or not.
		restore := func(c *Composite, indexed bool, log *[]int) *Composite {
			prev := SetQueryIndexEnabled(indexed)
			defer SetQueryIndexEnabled(prev)
			w := snapshot.NewWriter()
			c.ExportState(w)
			r := NewComposite(initial)
			if err := r.ImportState(snapshot.NewReader(w.Bytes()), func(qi int, _ string, _ int64, h Host) (Protocol, error) {
				return build(qi, log)(h), nil
			}); err != nil {
				t.Fatal(err)
			}
			return r
		}
		live := make([]int, first)
		for qi := range live {
			live[qi] = qi
		}
		export := func(c *Composite) []byte {
			w := snapshot.NewWriter()
			c.ExportState(w)
			return w.Bytes()
		}
		// Longer programs add little but audit time: each op costs a full
		// checkIndex and two exports.
		prog = prog[:min(len(prog), 4*300)]
		for ; len(prog) >= 4; prog = prog[4:] {
			op, s := prog[0], int(prog[1])%n
			slot := live[int(prog[2])%len(live)]
			switch op & 15 {
			case 0, 1, 2, 3, 4, 5:
				// Entries past the palette are its plain interval: an
				// unfiltered entry makes its stream report every update, so
				// it must stay rare for the fired set to matter.
				k := min(int(prog[3]&31), 11)
				cons := paletteCons(k, lin.vals[s], 5+5*float64(prog[3]>>5))
				var skip []stream.ID
				for t := range n {
					if prog[1]>>(4+t)&1 != 0 {
						skip = append(skip, t)
					}
				}
				for _, c := range []*Composite{lin, idx} {
					switch view := &c.queries[slot].view; op & 15 {
					case 4:
						view.InstallAllExcept(nil, cons)
					case 5:
						view.InstallAllExcept(skip, cons)
					default:
						view.Install(stream.ID(s), cons, op&0x80 != 0)
					}
				}
				switch op & 15 {
				case 4:
					sh.installAll(slot, nil, cons)
				case 5:
					sh.installAll(slot, skip, cons)
				default:
					sh[s][slot] = cons
				}
			case 6, 7, 8, 9, 10, 11:
				v := 2.5 * float64(prog[3])
				switch prog[2] % 8 {
				case 0:
					v = math.NaN()
				case 1:
					v = math.Inf(1)
				case 2:
					v = math.Inf(-1)
				case 3, 4:
					lo, hi := sh[s][live[int(prog[3])%len(live)]].Bounds()
					v = lo
					if prog[2]%8 == 4 {
						v = hi
					}
				}
				u := lin.vals[s]
				want := firedDriven(sh[s], u, v, live)
				dispatched = dispatched[:0]
				lin.Deliver(stream.ID(s), v)
				idx.Deliver(stream.ID(s), v)
				sh.deliver(s, v)
				if !slices.Equal(dispatched, want) {
					t.Fatalf("op %v: %v→%v dispatched to CrossingDriven slots %v, recount %v",
						prog[:4], u, v, dispatched, want)
				}
			case 12:
				lin, idx = restore(lin, false, new([]int)), restore(idx, true, &dispatched)
			case 13:
				if len(lin.queries) == most {
					continue
				}
				qi := len(lin.queries)
				admit := func(c *Composite, log *[]int) {
					c.AddQuery("q", int64(qi), build(qi, log))
					if prog[2]&1 != 0 {
						c.InitializeQuery(qi)
					}
					if prog[2]&6 != 0 {
						c.queries[qi].view.InstallAllExcept(nil, standing(qi))
					}
				}
				admit(lin, new([]int))
				admit(idx, &dispatched)
				sh.addSlot()
				if prog[2]&6 != 0 {
					sh.installAll(qi, nil, standing(qi))
				}
				live = append(live, qi)
			default:
				if len(live) == 1 {
					continue
				}
				for _, c := range []*Composite{lin, idx} {
					if err := c.RemoveQuery(slot); err != nil {
						t.Fatal(err)
					}
				}
				sh.removeSlot(slot)
				live = slices.DeleteFunc(live, func(qi int) bool { return qi == slot })
			}
			checkIndex(t, lin, sh)
			checkIndex(t, idx, sh)
			if !bytes.Equal(export(lin), export(idx)) {
				t.Fatalf("op %v: linear and indexed composites export different state", prog[:4])
			}
			if a, b := lin.Counter().ServerOps, idx.Counter().ServerOps; a != b {
				t.Fatalf("op %v: ServerOps linear %d, indexed %d", prog[:4], a, b)
			}
		}
	})
}

// TestQueryIndexLowerKeyEdges pins the one-ulp lower key where it is
// tightest: a point interval, bounds at both zeros delivered both zeros, a
// lower bound of -MaxFloat64 (keyed at -Inf) delivered ±Inf, and
// half-infinite intervals. Each walk moves onto, off and through every
// finite bound of its row; after every delivery the indexed and linear
// composites must dispatch the same fired set, export the same bytes and
// charge the same ServerOps. Every constraint stands on two slots, the
// even one CrossingDriven and logged.
func TestQueryIndexLowerKeyEdges(t *testing.T) {
	negZero, inf := math.Copysign(0, -1), math.Inf(1)
	up, down := func(v float64) float64 { return math.Nextafter(v, inf) },
		func(v float64) float64 { return math.Nextafter(v, -inf) }
	for _, row := range []struct {
		name  string
		start float64
		cons  []filter.Constraint
		walk  []float64
	}{
		{"point", 140, []filter.Constraint{filter.NewInterval(150, 150), filter.NewInterval(140, 150)},
			[]float64{150, 160, 150, 150, 140, 160, down(150), 150, up(150), 140, down(140), 140, 150}},
		{"zeros", 1, []filter.Constraint{
			filter.NewInterval(negZero, 1), filter.NewInterval(-1, 0),
			filter.NewInterval(0, 0), filter.NewInterval(negZero, negZero),
		}, []float64{0, negZero, 1, negZero, -1, 0, 2, negZero, -2, 0,
			-math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64, negZero, -1, up(1), 1}},
		{"max-float", 0, []filter.Constraint{
			filter.NewInterval(-math.MaxFloat64, 0),
			filter.NewInterval(-math.MaxFloat64, -math.MaxFloat64),
			filter.NewInterval(-inf, -math.MaxFloat64),
		}, []float64{-inf, -math.MaxFloat64, inf, -inf, 0, -math.MaxFloat64, up(-math.MaxFloat64),
			-inf, inf, math.MaxFloat64, -math.MaxFloat64, inf}},
		{"half-infinite", 150, []filter.Constraint{
			filter.NewInterval(-inf, 100), filter.NewInterval(100, inf),
			filter.NewInterval(math.MaxFloat64, inf), filter.NewInterval(-inf, -math.MaxFloat64),
		}, []float64{100, 50, 100, 150, 100, inf, -inf, 100, down(100), up(100), math.MaxFloat64,
			inf, math.MaxFloat64, 150, -math.MaxFloat64, -inf, 0}},
	} {
		t.Run(row.name, func(t *testing.T) {
			var dispatched []int
			compose := func(indexed bool, log *[]int) *Composite {
				prev := SetQueryIndexEnabled(indexed)
				defer SetQueryIndexEnabled(prev)
				c := NewComposite([]float64{row.start})
				for qi := 0; qi < 2*len(row.cons); qi++ {
					c.AddQuery("q", int64(qi), func(h Host) Protocol {
						if qi%2 == 0 {
							return loggedProto{drivenProto{h: h}, qi, log}
						}
						return nopProto{}
					})
					cons := row.cons[qi/2]
					c.queries[qi].view.Install(0, cons, cons.Contains(row.start))
				}
				c.Initialize()
				return c
			}
			lin, idx := compose(false, new([]int)), compose(true, &dispatched)
			live := make([]int, 2*len(row.cons))
			sh := make(shadow, 1)
			for qi := range live {
				live[qi] = qi
				sh.addSlot()
				sh[0][qi] = row.cons[qi/2]
			}
			export := func(c *Composite) []byte {
				w := snapshot.NewWriter()
				c.ExportState(w)
				return w.Bytes()
			}
			fires := 0
			for _, v := range row.walk {
				u := lin.vals[0]
				want := firedDriven(sh[0], u, v, live)
				dispatched = dispatched[:0]
				lin.Deliver(0, v)
				idx.Deliver(0, v)
				sh.deliver(0, v)
				if !slices.Equal(dispatched, want) {
					t.Fatalf("%v→%v dispatched to %v, recount %v", u, v, dispatched, want)
				}
				fires += len(want)
				checkIndex(t, lin, sh)
				checkIndex(t, idx, sh)
				if !bytes.Equal(export(lin), export(idx)) {
					t.Fatalf("%v→%v: linear and indexed composites export different state", u, v)
				}
				if a, b := lin.Counter().ServerOps, idx.Counter().ServerOps; a != b {
					t.Fatalf("%v→%v: ServerOps linear %d, indexed %d", u, v, a, b)
				}
			}
			if fires == 0 {
				t.Fatal("no delivery fired; the walk checks nothing")
			}
		})
	}
}

// TestDefaultChoiceIsUnobservable re-files one composite's index under
// several choices of column default — the majority a restore picks, the
// first or the last stream's entry, None, an interval no stream holds, and
// a stream's entry picked per column — and replays one schedule of
// deliveries, installs, InstallAlls and InstallAllExcepts on each. Which
// entry is the default decides which layer files what, never a fired set:
// every delivery must dispatch to the same CrossingDriven slots, and every
// op leave the same ServerOps and export bytes, with checkIndex passing
// throughout.
func TestDefaultChoiceIsUnobservable(t *testing.T) {
	const n, slots, ops = 6, 66, 400
	rng := rand.New(rand.NewSource(43))
	initial := make([]float64, n)
	for s := range initial {
		initial[s] = rng.NormFloat64()*40 + 150
	}
	build := func(qi int, log *[]int) func(Host) Protocol {
		return func(h Host) Protocol {
			if qi%2 == 0 {
				return loggedProto{drivenProto{h: h}, qi, log}
			}
			return nopProto{}
		}
	}
	base := NewComposite(initial)
	sh := make(shadow, n)
	// An unfiltered entry makes its stream report every update, so, as in
	// FuzzCompositeDeliver, palette entries past 11 are its plain interval
	// and unfiltered ones stay rare.
	palette := func(v float64) filter.Constraint {
		return paletteCons(min(rng.Intn(32), 11), v, 5+rng.Float64()*30)
	}
	for qi := 0; qi < slots; qi++ {
		base.AddQuery("q", int64(qi), build(qi, new([]int)))
		lo := 60 + 10*float64(qi%16)
		base.queries[qi].view.InstallAllExcept(nil, filter.NewInterval(lo, lo+80))
		sh.addSlot()
		sh.installAll(qi, nil, filter.NewInterval(lo, lo+80))
	}
	base.Initialize()
	for range 300 {
		s, qi := rng.Intn(n), rng.Intn(slots)
		cons := palette(base.vals[s])
		base.queries[qi].view.Install(s, cons, rng.Intn(2) == 0)
		sh[s][qi] = cons
	}
	w := snapshot.NewWriter()
	base.ExportState(w)
	type rows = [][]filter.Constraint
	picks := []struct {
		name string
		pick func(rows rows, qi int) filter.Constraint
	}{
		{"majority", majorityDefault},
		{"first", func(rows rows, qi int) filter.Constraint { return rows[0][qi] }},
		{"last", func(rows rows, qi int) filter.Constraint { return rows[n-1][qi] }},
		{"none", func(rows, int) filter.Constraint { return filter.NoFilter() }},
		{"held-by-none", func(rows, int) filter.Constraint { return filter.NewInterval(-1e9, -1e8) }},
		{"per-column", func(rows rows, qi int) filter.Constraint { return rows[qi%n][qi] }},
	}
	type run struct {
		c   *Composite
		log []int
	}
	runs := make([]*run, len(picks))
	for i, p := range picks {
		r := &run{c: NewComposite(initial)}
		if err := r.c.ImportState(snapshot.NewReader(w.Bytes()), func(qi int, _ string, _ int64, h Host) (Protocol, error) {
			return build(qi, &r.log)(h), nil
		}); err != nil {
			t.Fatal(err)
		}
		r.c.idx.refile(r.c, sh, p.pick)
		checkIndex(t, r.c, sh)
		runs[i] = r
	}
	export := func(c *Composite) []byte {
		w := snapshot.NewWriter()
		c.ExportState(w)
		return w.Bytes()
	}
	fired := 0
	for op := range ops {
		s, qi, side := rng.Intn(n), rng.Intn(slots), rng.Intn(2) == 0
		cons := palette(runs[0].c.vals[s])
		var skip []stream.ID
		for t := range n {
			if rng.Intn(4) == 0 {
				skip = append(skip, t)
			}
		}
		v := rng.NormFloat64()*40 + 150
		switch rng.Intn(40) {
		case 0:
			v = math.NaN()
		case 1:
			v = math.Inf(1)
		case 2:
			v = math.Inf(-1)
		}
		kind := rng.Intn(10)
		switch kind {
		case 0, 1:
			sh[s][qi] = cons
		case 2:
			sh.installAll(qi, nil, cons)
		case 3:
			sh.installAll(qi, skip, cons)
		default:
			sh.deliver(s, v)
		}
		for _, r := range runs {
			r.log = r.log[:0]
			view := &r.c.queries[qi].view
			switch kind {
			case 0, 1:
				view.Install(s, cons, side)
			case 2:
				view.InstallAllExcept(nil, cons)
			case 3:
				view.InstallAllExcept(skip, cons)
			default:
				r.c.Deliver(s, v)
			}
			checkIndex(t, r.c, sh)
		}
		fired += len(runs[0].log)
		want := export(runs[0].c)
		for i, r := range runs[1:] {
			if !slices.Equal(r.log, runs[0].log) {
				t.Fatalf("op %d: default %q dispatched to %v, %q to %v", op, picks[i+1].name, r.log, picks[0].name, runs[0].log)
			}
			if a, b := r.c.Counter().ServerOps, runs[0].c.Counter().ServerOps; a != b {
				t.Fatalf("op %d: default %q charged %d server ops, %q %d", op, picks[i+1].name, a, picks[0].name, b)
			}
			if !bytes.Equal(export(r.c), want) {
				t.Fatalf("op %d: default %q exports different state than %q", op, picks[i+1].name, picks[0].name)
			}
		}
	}
	if fired == 0 {
		t.Fatal("no delivery dispatched to a CrossingDriven slot; the schedule checks nothing")
	}
}

// TestInstallAllExceptRefusesUnsortedSkip: on a composite, indexed or
// linear, a skip list that is not strictly ascending panics, as on a
// cluster.
func TestInstallAllExceptRefusesUnsortedSkip(t *testing.T) {
	for _, indexed := range []bool{true, false} {
		for _, skip := range [][]stream.ID{{3, 1}, {2, 2}} {
			prev := SetQueryIndexEnabled(indexed)
			c := NewComposite([]float64{0, 1, 2, 3, 4})
			SetQueryIndexEnabled(prev)
			c.AddQuery("q", 0, func(Host) Protocol { return nopProto{} })
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("indexed %v: skip %v accepted", indexed, skip)
					}
				}()
				c.queries[0].view.InstallAllExcept(skip, filter.NewInterval(1, 2))
			}()
		}
	}
}
