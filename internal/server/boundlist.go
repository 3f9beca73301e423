package server

import "math"

// bkey is one indexed region boundary of a stream's query index: the value
// v at which evaluation class id>>1's inside region starts (id&1 == 0) or
// ends (id&1 == 1).
type bkey struct {
	v  float64
	id int32
}

// boundList is one stream's boundary index: its classes' finite region
// boundaries sorted by (value, id). It is a flat slice on purpose — a
// stream holds at most two keys per evaluation class (a few hundred at
// M = 256), the list changes on installs and band re-centres, not on
// events, and the per-event operations (find the first key inside a move
// window, bracket the landing value) are binary searches over contiguous
// memory followed by a linear walk of the hits. Values are never NaN:
// addBounds filters unindexable boundaries before they reach the list.
type boundList []bkey

// search returns the first index whose key is not less than (v, id).
func (b boundList) search(v float64, id int32) int {
	lo, hi := 0, len(b)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if k := b[m]; k.v < v || (k.v == v && k.id < id) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// from returns the first index whose key value is not less than v — where
// the walk over a move window [v, …] starts.
func (b boundList) from(v float64) int { return b.search(v, math.MinInt32) }

// insert adds key (v, id), keeping the list sorted. It returns false, and
// changes nothing, when the key is already present.
func (b *boundList) insert(v float64, id int32) bool {
	l := *b
	i := l.search(v, id)
	if i < len(l) && l[i].v == v && l[i].id == id {
		return false
	}
	l = append(l, bkey{})
	copy(l[i+1:], l[i:])
	l[i] = bkey{v: v, id: id}
	*b = l
	return true
}

// remove deletes key (v, id). It returns false when the key was absent.
func (b *boundList) remove(v float64, id int32) bool {
	l := *b
	i := l.search(v, id)
	if i == len(l) || l[i].v != v || l[i].id != id {
		return false
	}
	*b = append(l[:i], l[i+1:]...)
	return true
}

// bracket returns the widest open interval (lo, hi) around v that holds no
// key value: lo is the largest key value below v (−Inf when none) and hi
// the smallest above (+Inf when none). exact reports that some key's value
// equals v itself — no open interval around v is boundary-free then, so a
// caller caching (lo, hi) as a "no boundaries here" certificate must treat
// exact as a refusal. A NaN v is unordered against every key and reports
// exact on a non-empty list.
func (b boundList) bracket(v float64) (lo, hi float64, exact bool) {
	lo, hi = math.Inf(-1), math.Inf(1)
	i := b.from(v)
	if i > 0 {
		lo = b[i-1].v
	}
	if i < len(b) {
		if !(b[i].v > v) {
			return lo, hi, true
		}
		hi = b[i].v
	}
	return lo, hi, false
}
