package server

// bkey is one indexed region boundary of a stream's query index: the value
// v at which evaluation class id>>1's inside region starts (id&1 == 0) or
// ends (id&1 == 1).
type bkey struct {
	v  float64
	id int32
}

// boundList is one stream's boundary index: its classes' finite region
// boundaries sorted by (value, id), plus a finger at the stream's current
// value. It is a flat slice on purpose — a stream holds at most two keys per
// evaluation class (a few hundred at M = 256) and the list changes on
// installs and band re-centres, not on events. An event never searches it:
// the finger, at, says where the current value sits (keys[:at] lie strictly
// below it), so a move walks from there over just the keys it crosses.
// Every mutation keeps the finger exact by being told the current value.
// Values are never NaN: addBounds filters unindexable boundaries before
// they reach the list.
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

// quiet reports whether no key value lies in [lo, hi], a window that holds
// the current value. Only the keys on either side of the finger need a look:
// a key sitting exactly on the current value is never quiet.
func (b *boundList) quiet(lo, hi float64) bool {
	l, at := b.keys, int(b.at)
	return (at == 0 || l[at-1].v < lo) && (at == len(l) || hi < l[at].v)
}

// seek advances the finger from the current value u to v (neither NaN) and
// returns its old and new positions: keys[min(from, to):max(from, to)] are
// exactly the keys strictly between u and v. When u or v equals a key value
// it reports ok=false and moves nothing; a move onto or off a closed bound is
// left to move and the class check.
func (b *boundList) seek(u, v float64) (from, to int, ok bool) {
	l, at := b.keys, int(b.at)
	if at < len(l) && l[at].v == u {
		return at, at, false
	}
	from = at
	if v >= u {
		for at < len(l) && l[at].v < v {
			at++
		}
	} else {
		for at > 0 && l[at-1].v >= v {
			at--
		}
	}
	if at < len(l) && l[at].v == v {
		return from, from, false
	}
	b.at = int32(at)
	return from, at, true
}

// move advances the finger from the current value u to v (neither NaN) and
// appends to out the class id of every key in [min(u, v), max(u, v)], in
// ascending key order. It touches only the keys the move crosses, plus any
// sitting on its ends.
func (b *boundList) move(u, v float64, out []int32) []int32 {
	l, at := b.keys, int(b.at)
	if v >= u {
		for ; at < len(l) && l[at].v <= v; at++ {
			out = append(out, l[at].id>>1)
		}
		for at > 0 && l[at-1].v == v {
			at--
		}
	} else {
		for at > 0 && l[at-1].v >= v {
			at--
		}
		for i := at; i < len(l) && l[i].v <= u; i++ {
			out = append(out, l[i].id>>1)
		}
	}
	b.at = int32(at)
	return out
}
