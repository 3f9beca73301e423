package server

import "math"

// bkey is one boundary key of the query index: a finite bound of interval
// class id, the upper bound as it is and the lower bound one ulp low
// (lowerKey), so that the class contains x exactly when its lower key is
// below x and its upper key is not.
type bkey struct {
	v  float64
	id int32
}

// keyList is a sorted flat list of boundary keys, ordered by (value, id).
// It is a flat slice on purpose — it holds at most two keys per interval
// class (a few hundred at M = 256) and changes on installs, not on events.
// It keeps no finger: the shared list of column defaults is read from one
// finger per stream, each stream's own list from its boundList's. Values
// are never NaN: the index files no interval with a NaN bound.
type keyList []bkey

// search returns the first index whose key is not less than (v, id).
func (l keyList) search(v float64, id int32) int {
	lo, hi := 0, len(l)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if k := l[m]; k.v < v || (k.v == v && k.id < id) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// below returns how many keys lie strictly below v (none below a NaN):
// (v, MinInt32) orders before every key of value v.
func (l keyList) below(v float64) int { return l.search(v, math.MinInt32) }

// insert adds key (v, id), keeping the list sorted. It returns false, and
// changes nothing, when the key is already present.
func (l *keyList) insert(v float64, id int32) bool {
	i := l.search(v, id)
	k := *l
	if i < len(k) && k[i].v == v && k[i].id == id {
		return false
	}
	k = append(k, bkey{})
	copy(k[i+1:], k[i:])
	k[i] = bkey{v: v, id: id}
	*l = k
	return true
}

// remove deletes key (v, id). It returns false when the key was absent.
func (l *keyList) remove(v float64, id int32) bool {
	i := l.search(v, id)
	k := *l
	if i == len(k) || k[i].v != v || k[i].id != id {
		return false
	}
	*l = append(k[:i], k[i+1:]...)
	return true
}

// seek moves a finger at (keys below the current value u) to v, neither
// NaN, and returns it: keys[min(at, to):max(at, to)] are exactly the keys
// with min(u, v) <= key.v < max(u, v).
func (l keyList) seek(at int, v float64) int {
	for at < len(l) && l[at].v < v {
		at++
	}
	for at > 0 && l[at-1].v >= v {
		at--
	}
	return at
}

// boundList is one stream's own boundary keys plus a finger at the
// stream's current value. An event never searches it: the finger, at,
// says where the current value sits (keys[:at] lie strictly below it), so
// a move walks from there over just the keys it crosses. Every mutation
// keeps the finger exact by being told the current value.
type boundList struct {
	keys keyList
	at   int32 // keys whose value is strictly below the current value
}

// insert adds key (v, id), keeping the finger at the current value cur (a
// NaN cur lies above no key). It returns false, and changes nothing, when
// the key is already present.
func (b *boundList) insert(v float64, id int32, cur float64) bool {
	if !b.keys.insert(v, id) {
		return false
	}
	if v < cur {
		b.at++
	}
	return true
}

// remove deletes key (v, id), keeping the finger at the current value cur.
// It returns false when the key was absent.
func (b *boundList) remove(v float64, id int32, cur float64) bool {
	if !b.keys.remove(v, id) {
		return false
	}
	if v < cur {
		b.at--
	}
	return true
}

// seek advances the finger from the current value u to v (neither NaN) and
// returns its old and new positions: keys[min(from, to):max(from, to)] are
// exactly the keys with min(u, v) <= key.v < max(u, v).
func (b *boundList) seek(v float64) (from, to int) {
	from = int(b.at)
	to = b.keys.seek(from, v)
	b.at = int32(to)
	return from, to
}
