package server

// bkey is one boundary key of a stream's query index: a finite bound of
// interval class id, the upper bound as it is and the lower bound one ulp
// low (lowerKey), so that the class contains x exactly when its lower key
// is below x and its upper key is not.
type bkey struct {
	v  float64
	id int32
}

// boundList is one stream's boundary index: its interval classes' keys
// sorted by (value, id), plus a finger at the stream's current value. It is
// a flat slice on purpose — a stream holds at most two keys per interval
// class (a few hundred at M = 256) and the list changes on installs, not on
// events. An event never searches it: the finger, at, says where the
// current value sits (keys[:at] lie strictly below it), so a move walks from
// there over just the keys it crosses. Every mutation keeps the finger
// exact by being told the current value. Values are never NaN: the index
// files no interval with a NaN bound.
type boundList struct {
	keys []bkey
	at   int32 // keys whose value is strictly below the current value
}

// search returns the first index whose key is not less than (v, id).
func (b *boundList) search(v float64, id int32) int {
	l := b.keys
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

// insert adds key (v, id), keeping the list sorted and the finger at the
// current value cur (a NaN cur lies above no key). It returns false, and
// changes nothing, when the key is already present.
func (b *boundList) insert(v float64, id int32, cur float64) bool {
	i := b.search(v, id)
	l := b.keys
	if i < len(l) && l[i].v == v && l[i].id == id {
		return false
	}
	l = append(l, bkey{})
	copy(l[i+1:], l[i:])
	l[i] = bkey{v: v, id: id}
	b.keys = l
	if v < cur {
		b.at++
	}
	return true
}

// remove deletes key (v, id), keeping the finger at the current value cur.
// It returns false when the key was absent.
func (b *boundList) remove(v float64, id int32, cur float64) bool {
	i := b.search(v, id)
	l := b.keys
	if i == len(l) || l[i].v != v || l[i].id != id {
		return false
	}
	b.keys = append(l[:i], l[i+1:]...)
	if v < cur {
		b.at--
	}
	return true
}

// seek advances the finger from the current value u to v (neither NaN) and
// returns its old and new positions: keys[min(from, to):max(from, to)] are
// exactly the keys with min(u, v) <= key.v < max(u, v).
func (b *boundList) seek(v float64) (from, to int) {
	l, at := b.keys, int(b.at)
	from = at
	for at < len(l) && l[at].v < v {
		at++
	}
	for at > 0 && l[at-1].v >= v {
		at--
	}
	b.at = int32(at)
	return from, at
}
