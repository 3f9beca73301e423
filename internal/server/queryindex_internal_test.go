package server

import (
	"math"
	"math/rand"
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

// drivenProto is nopProto declaring CrossingDriven, so the dispatch
// bookkeeping has both kinds of slot to file.
type drivenProto struct{ nopProto }

func (drivenProto) CrossingDriven() {}

// checkDispatch recounts the dispatch bookkeeping from the slots: the
// CrossingDriven count, the ascending list of every other live slot, and
// the O(1) LiveQueries they add up to.
func checkDispatch(t *testing.T, c *Composite) {
	t.Helper()
	driven, live := 0, 0
	var others []int32
	for qi, q := range c.queries {
		if q == nil {
			continue
		}
		live++
		_, isDriven := q.proto.(CrossingDriven)
		if q.driven != isDriven {
			t.Fatalf("slot %d: driven flag %v, protocol says %v", qi, q.driven, isDriven)
		}
		if isDriven {
			driven++
		} else {
			others = append(others, int32(qi))
		}
	}
	if c.driven != driven {
		t.Fatalf("driven = %d, recount %d", c.driven, driven)
	}
	if len(c.others) != len(others) {
		t.Fatalf("others = %v, recount %v", c.others, others)
	}
	for i := range others {
		if c.others[i] != others[i] {
			t.Fatalf("others = %v, recount %v", c.others, others)
		}
	}
	if c.LiveQueries() != live {
		t.Fatalf("LiveQueries = %d, recount %d", c.LiveQueries(), live)
	}
}

// checkIndex verifies the full structural invariant set of the query index
// against the fabric: slot categorization, class membership and
// homogeneity, the exact boundary key list (sorted, duplicate-free) and its
// finger, the armed list (no leaks, no duplicates, every must-evaluate class present)
// and the dispatch bookkeeping.
func checkIndex(t *testing.T, c *Composite) {
	t.Helper()
	x := c.idx
	if x == nil {
		t.Fatal("composite has no index")
	}
	checkDispatch(t, c)
	for s := range x.streams {
		st := &x.streams[s]
		if len(st.classOf) != len(c.queries) {
			t.Fatalf("stream %d: classOf sized %d, want %d", s, len(st.classOf), len(c.queries))
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
			if !cl.live {
				if len(members[int32(cid)]) != 0 {
					t.Fatalf("stream %d: dead class %d has members", s, cid)
				}
				continue
			}
			got := append([]int32(nil), cl.slots...)
			want := members[int32(cid)]
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
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
			// Interval classes must share one recorded side.
			if cl.cons.Kind == filter.Interval {
				side := c.inside[s][cl.slots[0]]
				for _, sl := range cl.slots {
					if c.inside[s][sl] != side {
						t.Fatalf("stream %d class %d: recorded sides diverge", s, cid)
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
				needArmed = c.inside[s][cl.slots[0]] != cl.cons.Contains(c.vals[s])
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
// fallbacks), slot addition and removal, a snapshot restore into a fresh
// composite — and fully audits the structures after every operation. The black-box equivalence test proves behaviour;
// this one catches silent structural leaks (stale boundary keys, leaked
// armed entries) that would only show as performance decay.
func TestQueryIndexInvariants(t *testing.T) {
	const n = 6
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
	for qi := 0; qi < 4; qi++ {
		c.AddQuery("q", int64(qi), build(int64(qi)))
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
	live := []int{0, 1, 2, 3}
	slots := 4
	for op := 0; op < 3000; op++ {
		switch r := rng.Intn(100); {
		case r < 35:
			s := stream.ID(rng.Intn(n))
			qi := live[rng.Intn(len(live))]
			c.setConstraint(s, qi, palette(c.vals[s]))
		case r < 38 && slots < 10:
			c.AddQuery("q", int64(slots), build(int64(slots)))
			live = append(live, slots)
			slots++
		case r < 41 && len(live) > 1:
			j := rng.Intn(len(live))
			if err := c.RemoveQuery(live[j]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:j], live[j+1:]...)
		case r < 43:
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
}
