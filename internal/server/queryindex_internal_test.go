package server

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"adaptivefilters/internal/comm"
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

// drivenProto is nopProto declaring CrossingDriven, so the dispatch
// bookkeeping has both kinds of slot to file.
type drivenProto struct{ nopProto }

func (drivenProto) CrossingDriven() {}

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
// CrossingDriven mask, the mask of every other live slot, and the
// LiveQueries they add up to.
func checkDispatch(t *testing.T, c *Composite) {
	t.Helper()
	slots := len(c.queries)
	checkSet(t, "drivenMask", c.drivenMask, slots)
	checkSet(t, "othersMask", c.othersMask, slots)
	live := 0
	for qi, q := range c.queries {
		isDriven, isOther := false, false
		if q != nil {
			live++
			_, isDriven = q.proto.(CrossingDriven)
			isOther = !isDriven
		}
		if c.drivenMask.has(qi) != isDriven || c.othersMask.has(qi) != isOther {
			t.Fatalf("slot %d: driven/others bits %v/%v, recount %v/%v",
				qi, c.drivenMask.has(qi), c.othersMask.has(qi), isDriven, isOther)
		}
	}
	if c.LiveQueries() != live {
		t.Fatalf("LiveQueries = %d, recount %d", c.LiveQueries(), live)
	}
}

// checkIndex verifies the full structural invariant set of the query index
// against the fabric: bitmap sizes, slot categorization, class membership
// and homogeneity, each interval class's cached side, the exact boundary
// key list (sorted, duplicate-free) and its finger, the armed list (no
// leaks, no duplicates, every must-evaluate class present) and the
// dispatch bookkeeping.
func checkIndex(t *testing.T, c *Composite) {
	t.Helper()
	x := c.idx
	if x == nil {
		t.Fatal("composite has no index")
	}
	checkDispatch(t, c)
	if x.words != words(len(c.queries)) || len(x.fired) != x.words {
		t.Fatalf("index stride %d, fired %d words, for %d slots", x.words, len(x.fired), len(c.queries))
	}
	for s := range x.streams {
		st := &x.streams[s]
		if len(st.classOf) != len(c.queries) {
			t.Fatalf("stream %d: classOf sized %d, want %d", s, len(st.classOf), len(c.queries))
		}
		checkSet(t, fmt.Sprintf("stream %d inside", s), c.inside[s], len(c.queries))
		if len(st.members) != len(st.classes)*x.words {
			t.Fatalf("stream %d: %d member words for %d classes", s, len(st.members), len(st.classes))
		}
		always := 0
		members := map[int32][]int32{}
		for qi := range c.queries {
			cons := c.cons[s][qi]
			cid := st.classOf[qi]
			switch {
			case c.queries[qi] == nil || (cons.Kind == filter.Interval && cons.Silent()):
				if cid != catNone {
					t.Fatalf("stream %d slot %d: category %d, want none", s, qi, cid)
				}
			case cons.Kind == filter.None:
				if cid != catAlways {
					t.Fatalf("stream %d slot %d: category %d, want always", s, qi, cid)
				}
				always++
			default:
				if cid < 0 || int(cid) >= len(st.classes) {
					t.Fatalf("stream %d slot %d: class id %d out of range", s, qi, cid)
				}
				cl := &st.classes[cid]
				if !cl.live {
					t.Fatalf("stream %d slot %d: points at dead class %d", s, qi, cid)
				}
				if !sameConstraint(cl.cons, cons) {
					t.Fatalf("stream %d slot %d: class %d holds %v, entry holds %v",
						s, qi, cid, cl.cons, cons)
				}
				members[cid] = append(members[cid], int32(qi))
			}
		}
		if always != st.always {
			t.Fatalf("stream %d: always = %d, want %d", s, st.always, always)
		}
		var wantKeys []bkey
		for cid := range st.classes {
			cl := &st.classes[cid]
			m := x.members(st, int32(cid))
			checkSet(t, fmt.Sprintf("stream %d class %d members", s, cid), m, len(c.queries))
			if !cl.live {
				if len(members[int32(cid)]) != 0 || m.count() != 0 {
					t.Fatalf("stream %d: dead class %d has members", s, cid)
				}
				continue
			}
			var got []int32
			for qi := range c.queries {
				if m.has(qi) {
					got = append(got, int32(qi))
				}
			}
			want := members[int32(cid)]
			if len(got) != len(want) {
				t.Fatalf("stream %d class %d: %d members, fabric implies %d", s, cid, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("stream %d class %d: members %v, fabric implies %v", s, cid, got, want)
				}
			}
			if len(got) == 0 {
				t.Fatalf("stream %d: live class %d is empty", s, cid)
			}
			// Interval classes cache the one recorded side their members share.
			if cl.cons.Kind == filter.Interval {
				for _, sl := range got {
					if c.inside[s].has(int(sl)) != cl.side {
						t.Fatalf("stream %d class %d: slot %d side %v, class side %v",
							s, cid, sl, c.inside[s].has(int(sl)), cl.side)
					}
				}
			}
			lo, hi := cl.cons.Bounds()
			if !(lo > hi) {
				if !math.IsNaN(lo) && !math.IsInf(lo, 0) {
					wantKeys = append(wantKeys, bkey{v: lo, id: int32(cid) * 2})
				}
				if !math.IsNaN(hi) && !math.IsInf(hi, 0) {
					wantKeys = append(wantKeys, bkey{v: hi, id: int32(cid)*2 + 1})
				}
			}
			// Must-evaluate classes are armed.
			needArmed := false
			if cl.cons.Kind == filter.Band {
				needArmed = structuralBand(cl.cons) || !cl.cons.Contains(c.vals[s])
			} else {
				needArmed = cl.side != cl.cons.Contains(c.vals[s])
			}
			if needArmed && !cl.armed {
				t.Fatalf("stream %d class %d (%v): must-evaluate but not armed", s, cid, cl.cons)
			}
		}
		sort.Slice(wantKeys, func(a, b int) bool { return keyLess(wantKeys[a], wantKeys[b]) })
		gotKeys := st.bounds.keys
		for i := 1; i < len(gotKeys); i++ {
			if !keyLess(gotKeys[i-1], gotKeys[i]) {
				t.Fatalf("stream %d: boundary keys %d,%d out of order or duplicated: %v, %v",
					s, i-1, i, gotKeys[i-1], gotKeys[i])
			}
		}
		if len(gotKeys) != len(wantKeys) {
			t.Fatalf("stream %d: %d boundary keys, want %d", s, len(gotKeys), len(wantKeys))
		}
		for i := range gotKeys {
			if gotKeys[i] != wantKeys[i] {
				t.Fatalf("stream %d: boundary key %d = %v, want %v", s, i, gotKeys[i], wantKeys[i])
			}
		}
		// The finger: exactly the keys below the current value precede it
		// (a NaN value lies above none). A drifted finger would silently
		// skip real crossings — behaviorally invisible until a query misses
		// an update, so it is audited structurally here.
		below := 0
		for _, k := range gotKeys {
			if k.v < c.vals[s] {
				below++
			}
		}
		if int(st.bounds.at) != below {
			t.Fatalf("stream %d: finger at %d, but %d keys lie below the value %v",
				s, st.bounds.at, below, c.vals[s])
		}
		seen := map[int32]bool{}
		for _, cid := range st.armed {
			if seen[cid] {
				t.Fatalf("stream %d: class %d armed twice", s, cid)
			}
			seen[cid] = true
			cl := &st.classes[cid]
			if !cl.live || !cl.armed {
				t.Fatalf("stream %d: armed list holds dead/unflagged class %d", s, cid)
			}
		}
		for cid := range st.classes {
			if st.classes[cid].armed && !seen[int32(cid)] {
				t.Fatalf("stream %d: class %d flagged armed but not listed", s, cid)
			}
		}
	}
}

// keyLess is the boundary list's strict (value, id) order.
func keyLess(a, b bkey) bool { return a.v < b.v || (a.v == b.v && a.id < b.id) }

// TestQueryIndexInvariants churns the index through every mutation path —
// installs from an adversarial palette, deliveries (including NaN and ±Inf
// fallbacks), probes that re-record sides, slot addition and removal, a
// snapshot restore into a fresh composite, plain or with tampered recorded
// sides — and fully audits the structures after every operation. The walk
// starts at 62 slots and grows past 64 and 128, so every bitmap runs over
// several words. The black-box equivalence test proves behaviour; this one
// catches silent structural leaks (stale boundary keys, leaked armed
// entries) that would only show as performance decay.
func TestQueryIndexInvariants(t *testing.T) {
	const n, first, most = 6, 62, 140
	rng := rand.New(rand.NewSource(99))
	initial := make([]float64, n)
	for s := range initial {
		initial[s] = rng.NormFloat64()*40 + 150
	}
	c := NewComposite(initial)
	if c.idx == nil {
		t.Skip("query index disabled")
	}
	build := func(seedID int64) func(Host) Protocol {
		return func(Host) Protocol {
			if seedID%2 == 0 {
				return drivenProto{}
			}
			return nopProto{}
		}
	}
	var live []int
	for qi := 0; qi < first; qi++ {
		c.AddQuery("q", int64(qi), build(int64(qi)))
		live = append(live, qi)
	}
	palette := func(v float64) filter.Constraint {
		w := 5 + rng.Float64()*40
		switch rng.Intn(12) {
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
	// restore round-trips c through a snapshot. tamper flips every live
	// slot's recorded side of one stream in the bytes it writes (c is
	// replaced, so its own index never sees the flips), then reinstalls a
	// few standing entries there, which puts their sides right.
	restore := func(tamper bool) {
		s := rng.Intn(n)
		if tamper {
			for _, qi := range live {
				c.inside[s].put(qi, !c.inside[s].has(qi))
			}
		}
		defer func() {
			if tamper {
				checkIndex(t, c)
				for k := 0; k < 4; k++ {
					qi := live[rng.Intn(len(live))]
					c.setConstraint(stream.ID(s), qi, c.cons[s][qi])
				}
			}
		}()
		w := snapshot.NewWriter()
		c.ExportState(w)
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		restored := NewComposite(initial)
		err := restored.ImportState(snapshot.NewReader(w.Bytes()),
			func(_ int, _ string, seedID int64, h Host) (Protocol, error) { return build(seedID)(h), nil })
		if err != nil {
			t.Fatal(err)
		}
		c = restored
	}
	slots := first
	var removedLow, removedHigh, wideRestore, tampered bool
	for op := 0; op < 4000; op++ {
		switch r := rng.Intn(100); {
		case r < 35:
			s := stream.ID(rng.Intn(n))
			qi := live[rng.Intn(len(live))]
			c.setConstraint(s, qi, palette(c.vals[s]))
		case r < 40 && slots < most:
			c.AddQuery("q", int64(slots), build(int64(slots)))
			live = append(live, slots)
			slots++
		case r < 43 && len(live) > 1:
			j := rng.Intn(len(live))
			if err := c.RemoveQuery(live[j]); err != nil {
				t.Fatal(err)
			}
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
			c.Deliver(stream.ID(rng.Intn(n)), v)
		}
		checkIndex(t, c)
	}
	if slots <= 128 || !removedLow || !removedHigh || !wideRestore || !tampered {
		t.Fatalf("walk ended at %d slots (removed <64: %v, >=64: %v; restored past 64: %v, tampered: %v); adjust it",
			slots, removedLow, removedHigh, wideRestore, tampered)
	}
}

// sideProto installs one interval at every stream and answers with the
// streams it was handed reports for, in order. It sees every report.
type sideProto struct {
	h   Host
	got []stream.ID
}

func (p *sideProto) Name() string                       { return "side" }
func (p *sideProto) Initialize()                        { p.h.InstallAll(filter.NewInterval(100, 200)) }
func (p *sideProto) Answer() []stream.ID                { return p.got }
func (p *sideProto) ExportState(*snapshot.Writer)       {}
func (p *sideProto) ImportState(*snapshot.Reader) error { return nil }

func (p *sideProto) HandleUpdate(id stream.ID, _ float64) {
	p.h.AddServerOps(1)
	p.got = append(p.got, id)
}

// TestQueryIndexSideResync pins the hook that keeps each interval class's
// cached side in step with its members' recorded sides. Two queries share
// one interval on a stream whose sides a tampered snapshot recorded
// against ground truth; a probe (a hit, or a miss, which re-records the
// sides all the same) puts them right, and a move that stays on the same
// side must then report nothing, indexed as linear. A class still holding
// the tampered side would fire on that move.
func TestQueryIndexSideResync(t *testing.T) {
	for _, miss := range []bool{false, true} {
		t.Run(fmt.Sprintf("miss=%v", miss), func(t *testing.T) {
			run := func(indexed bool) *Composite {
				prev := SetQueryIndexEnabled(indexed)
				defer SetQueryIndexEnabled(prev)
				build := func(h Host) Protocol { return &sideProto{h: h} }
				c := NewComposite([]float64{150})
				c.AddQuery("a", 0, build)
				c.AddQuery("b", 1, build)
				c.Initialize()
				c.inside[0].put(0, false) // 150 lies inside [100, 200]
				c.inside[0].put(1, false)
				w := snapshot.NewWriter()
				c.ExportState(w)
				c = NewComposite([]float64{150})
				err := c.ImportState(snapshot.NewReader(w.Bytes()),
					func(_ int, _ string, _ int64, h Host) (Protocol, error) { return build(h), nil })
				if err != nil {
					t.Fatal(err)
				}
				view := &c.queries[0].view
				if !miss {
					view.Probe(0)
				} else if _, hit := view.ProbeIf(0, filter.NewInterval(300, 400)); hit {
					t.Fatal("ProbeIf hit")
				}
				c.Deliver(0, 160)
				if indexed {
					checkIndex(t, c)
				}
				return c
			}
			linear, indexed := run(false), run(true)
			if got := linear.ctr.Get(comm.Maintenance, comm.Update); got != 0 {
				t.Fatalf("linear reported %d times; the move should stay inside", got)
			}
			if linear.ctr != indexed.ctr {
				t.Fatalf("counters: linear %v, indexed %v", linear.ctr.String(), indexed.ctr.String())
			}
			for qi := 0; qi < 2; qi++ {
				if l, x := linear.inside[0].has(qi), indexed.inside[0].has(qi); l != x {
					t.Fatalf("slot %d side: linear %v, indexed %v", qi, l, x)
				}
				if l, x := linear.Answer(qi), indexed.Answer(qi); !slices.Equal(l, x) {
					t.Fatalf("slot %d answer: linear %v, indexed %v", qi, l, x)
				}
			}
		})
	}
}
