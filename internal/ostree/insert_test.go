package ostree

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// legacyTree reproduces the historical Insert exactly: a Contains probe
// followed by split/merge, drawing a priority from the same splitmix64
// stream only when the key was absent. The single-pass Insert must consume
// priorities identically and build the identical structure.
type legacyTree struct {
	root  *node
	state uint64
}

func newLegacyTree() *legacyTree { return &legacyTree{state: 0x9E3779B97F4A7C15} }

func (t *legacyTree) nextPrio() uint64 {
	t.state += 0x9E3779B97F4A7C15
	x := t.state
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func legacySplit(n *node, k Key) (l, r *node) {
	if n == nil {
		return nil, nil
	}
	if n.key.Less(k) {
		n.right, r = legacySplit(n.right, k)
		n.update()
		return n, r
	}
	l, n.left = legacySplit(n.left, k)
	n.update()
	return l, n
}

func (t *legacyTree) contains(k Key) bool {
	n := t.root
	for n != nil {
		switch {
		case k.Less(n.key):
			n = n.left
		case n.key.Less(k):
			n = n.right
		default:
			return true
		}
	}
	return false
}

func (t *legacyTree) insert(k Key) bool {
	if t.contains(k) {
		return false
	}
	nn := &node{key: k, prio: t.nextPrio(), size: 1}
	l, r := legacySplit(t.root, k)
	t.root = merge(merge(l, nn), r)
	return true
}

func (t *legacyTree) delete(k Key) bool {
	var deleted bool
	var del func(n *node) *node
	del = func(n *node) *node {
		if n == nil {
			return nil
		}
		switch {
		case k.Less(n.key):
			n.left = del(n.left)
		case n.key.Less(k):
			n.right = del(n.right)
		default:
			deleted = true
			return merge(n.left, n.right)
		}
		n.update()
		return n
	}
	t.root = del(t.root)
	return deleted
}

// dumpShape serializes the full structure — keys, priorities and subtree
// sizes in preorder — so two trees compare equal only when they are
// byte-identical, not merely when they hold the same key set.
func dumpShape(n *node) string {
	if n == nil {
		return "."
	}
	return fmt.Sprintf("(%v/%d/%d/%d %s %s)",
		n.key.V, n.key.ID, n.prio, n.size, dumpShape(n.left), dumpShape(n.right))
}

// TestInsertMatchesLegacyImplementation replays a recorded op sequence
// (seeded, so it is the same sequence every run) through the single-pass
// Insert and the historical split/merge implementation, comparing Keys()
// and the full shape after every operation. This pins both the structure
// and the priority-stream consumption: a deterministic snapshot or golden
// built before the rewrite stays byte-identical after it.
func TestInsertMatchesLegacyImplementation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cur := New()
	old := newLegacyTree()
	for op := 0; op < 4000; op++ {
		// Small key universe so duplicate inserts (no priority drawn) and
		// deletes of absent keys occur often.
		k := Key{V: float64(rng.Intn(40)), ID: rng.Intn(8)}
		if rng.Intn(3) == 0 {
			if got, want := cur.Delete(k), old.delete(k); got != want {
				t.Fatalf("op %d: Delete(%v) = %v, legacy %v", op, k, got, want)
			}
		} else {
			if got, want := cur.Insert(k), old.insert(k); got != want {
				t.Fatalf("op %d: Insert(%v) = %v, legacy %v", op, k, got, want)
			}
		}
		if got, want := dumpShape(cur.root), dumpShape(old.root); got != want {
			t.Fatalf("op %d: shape diverged\n new: %s\n old: %s", op, got, want)
		}
	}
	if cur.state != old.state {
		t.Fatalf("priority stream diverged: %#x vs %#x", cur.state, old.state)
	}
	got, want := cur.Keys(), make([]Key, 0)
	old.walkKeys(&want)
	if len(got) != len(want) {
		t.Fatalf("Keys() length %d, legacy %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Keys()[%d] = %v, legacy %v", i, got[i], want[i])
		}
	}
}

func (t *legacyTree) walkKeys(out *[]Key) {
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		walk(n.left)
		*out = append(*out, n.key)
		walk(n.right)
	}
	walk(t.root)
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestNaNKeyRejected is the regression test for the NaN-hostile ordering
// bug: before the guard, one NaN-valued key made Contains return true for
// every probe and silently corrupted the treap order.
func TestNaNKeyRejected(t *testing.T) {
	tr := New()
	for i := 0; i < 8; i++ {
		tr.Insert(Key{V: float64(i), ID: i})
	}
	nan := math.NaN()
	mustPanic(t, "Insert(NaN)", func() { tr.Insert(Key{V: nan, ID: 99}) })

	// Probes treat NaN as matching nothing instead of corrupting answers.
	if tr.Contains(Key{V: nan, ID: 0}) {
		t.Fatal("Contains(NaN) = true")
	}
	if tr.Delete(Key{V: nan, ID: 0}) {
		t.Fatal("Delete(NaN) = true")
	}
	if got := tr.Rank(Key{V: nan, ID: 0}); got != 0 {
		t.Fatalf("Rank(NaN) = %d, want 0", got)
	}
	if got := tr.CountRange(nan, nan); got != 0 {
		t.Fatalf("CountRange(NaN, NaN) = %d, want 0", got)
	}
	// The failed insert must not have disturbed the tree.
	if tr.Len() != 8 {
		t.Fatalf("Len() = %d after rejected insert, want 8", tr.Len())
	}
	for i := 0; i < 8; i++ {
		if !tr.Contains(Key{V: float64(i), ID: i}) {
			t.Fatalf("key %d lost after rejected insert", i)
		}
	}
}

// TestClearRecycles pins the free-list behaviour Clear and Delete rely on:
// after a warm-up, insert/delete churn allocates nothing.
func TestClearRecycles(t *testing.T) {
	tr := New()
	for i := 0; i < 64; i++ {
		tr.Insert(Key{V: float64(i), ID: i})
	}
	tr.Clear()
	if tr.Len() != 0 {
		t.Fatalf("Len() = %d after Clear", tr.Len())
	}
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 64; i++ {
			tr.Insert(Key{V: float64(i), ID: i})
		}
		for i := 0; i < 64; i++ {
			tr.Delete(Key{V: float64(i), ID: i})
		}
	})
	if allocs != 0 {
		t.Fatalf("insert/delete churn allocates %v allocs/run, want 0", allocs)
	}
}

// FuzzTreeOps drives a decoded op sequence against a map/slice oracle. The
// checked-in corpus (testdata/fuzz/FuzzTreeOps) includes a NaN insert — the
// input class that corrupted the pre-guard tree order.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0x00, 0x40, 0x24, 0, 0, 0, 0, 0, 0, 0x01, 0x40, 0x34, 0, 0, 0, 0, 0, 0})
	// NaN insert: panics today; pre-guard it poisoned every later probe.
	f.Add([]byte{0x00, 0x7f, 0xf8, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := New()
		oracle := map[Key]bool{}
		for len(data) >= 9 {
			op := data[0]
			v := math.Float64frombits(binary.BigEndian.Uint64(data[1:9]))
			data = data[9:]
			k := Key{V: v, ID: int(op >> 4)}
			if math.IsNaN(v) {
				mustPanic(t, "Insert(NaN)", func() { tr.Insert(k) })
				if tr.Contains(k) || tr.Delete(k) || tr.Rank(k) != 0 {
					t.Fatal("NaN probe matched")
				}
				continue
			}
			switch op % 3 {
			case 0:
				if got, want := tr.Insert(k), !oracle[k]; got != want {
					t.Fatalf("Insert(%v) = %v, want %v", k, got, want)
				}
				oracle[k] = true
			case 1:
				if got, want := tr.Delete(k), oracle[k]; got != want {
					t.Fatalf("Delete(%v) = %v, want %v", k, got, want)
				}
				delete(oracle, k)
			default:
				if got, want := tr.Contains(k), oracle[k]; got != want {
					t.Fatalf("Contains(%v) = %v, want %v", k, got, want)
				}
			}
		}
		want := make([]Key, 0, len(oracle))
		for k := range oracle {
			want = append(want, k)
		}
		sort.Slice(want, func(a, b int) bool { return want[a].Less(want[b]) })
		got := tr.Keys()
		if len(got) != len(want) {
			t.Fatalf("Len %d, oracle %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Keys[%d] = %v, oracle %v", i, got[i], want[i])
			}
			if r := tr.Rank(got[i]); r != i {
				t.Fatalf("Rank(%v) = %d, want %d", got[i], r, i)
			}
		}
	})
}
