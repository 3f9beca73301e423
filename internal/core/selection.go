package core

import (
	"math/bits"
	"math/rand"

	"adaptivefilters/internal/topk"
)

// Labels for sim.RNG.Split deriving each protocol's selection stream from
// its config seed; distinct labels keep the two protocols' draws
// uncorrelated even when they share a seed.
const (
	ftnrpSelStream int64 = 0x5DEE
	ftrpSelStream  int64 = 0x2545
)

// Selection chooses which streams receive the silent false-positive /
// false-negative filters during the fraction-based initialization phase.
// The paper compares two heuristics (§6.2, Figure 14).
type Selection int

const (
	// SelectBoundaryNearest assigns silent filters to the streams whose
	// values lie closest to the query boundary — the streams most likely to
	// cross it, so silencing them saves the most updates. This is the
	// paper's better heuristic and the default.
	SelectBoundaryNearest Selection = iota
	// SelectRandom assigns silent filters uniformly at random.
	SelectRandom
)

// String names the heuristic.
func (s Selection) String() string {
	if s == SelectRandom {
		return "random"
	}
	return "boundary-nearest"
}

// pickKeyed returns up to n of ids: keys[i] is the caller-computed score of
// ids[i], both slices are reordered in place, and the chosen ids occupy
// ids[:min(n,len(ids))], which is returned. For boundary-nearest, the ids
// with the smallest score are chosen (score = distance to the query
// boundary), ties broken by id for determinism, and only the chosen prefix
// is ordered; for random, a seeded shuffle of the whole slice decides (one
// Shuffle of len(ids), so the RNG consumption does not depend on n). A
// caller passing scratch buffers allocates nothing.
func (s Selection) pickKeyed(ids []int, keys []float64, n int, rng *rand.Rand) []int {
	if n <= 0 || len(ids) == 0 {
		return nil
	}
	if n > len(ids) {
		n = len(ids)
	}
	switch s {
	case SelectRandom:
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	default:
		topk.Select(ids, keys, n)
	}
	return ids[:n]
}

// intSet is a small deterministic set of dense stream ids (0..n-1) used for
// answer and filter bookkeeping. It is a membership bitmap packed 64 ids to
// the word rather than a map: add/remove/has are a shift and a mask, clear
// keeps the backing storage, and iteration skips empty words and pulls
// members out of the others with TrailingZeros — naturally in ascending id
// order, and costing n/64 word loads plus the member count rather than one
// load per stream, which matters when a rank protocol over thousands of
// streams tracks a couple of dozen. The steady-state maintenance path
// allocates nothing once the bitmap has grown to the stream count.
type intSet struct {
	words []uint64
	n     int
}

func newIntSet() intSet { return intSet{} }

// grow extends the bitmap to hold at least nw words.
func (s *intSet) grow(nw int) {
	if nw > len(s.words) {
		grown := make([]uint64, nw)
		copy(grown, s.words)
		s.words = grown
	}
}

func (s *intSet) add(id int) {
	w, bit := id>>6, uint64(1)<<(uint(id)&63)
	s.grow(w + 1)
	if s.words[w]&bit == 0 {
		s.words[w] |= bit
		s.n++
	}
}

func (s *intSet) remove(id int) {
	w, bit := id>>6, uint64(1)<<(uint(id)&63)
	if w < len(s.words) && s.words[w]&bit != 0 {
		s.words[w] &^= bit
		s.n--
	}
}

func (s *intSet) has(id int) bool {
	w := uint(id) >> 6 // a negative id lands past any bitmap
	return w < uint(len(s.words)) && s.words[w]>>(uint(id)&63)&1 != 0
}

func (s *intSet) len() int { return s.n }

// clear empties the set but keeps the backing bitmap, so rebuild-heavy
// protocols (RTP, FT-RP) reset their answer sets without reallocating.
func (s *intSet) clear() {
	clear(s.words)
	s.n = 0
}

// addAll inserts every member of o.
func (s *intSet) addAll(o *intSet) {
	s.grow(len(o.words))
	for i, w := range o.words {
		s.n += bits.OnesCount64(w &^ s.words[i])
		s.words[i] |= w
	}
}

// appendMembers appends the members ascending to dst and returns it; hot
// paths pass a reusable scratch slice (dst[:0]) to avoid allocating.
func (s *intSet) appendMembers(dst []int) []int {
	for i, w := range s.words {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, i<<6+bits.TrailingZeros64(w))
		}
	}
	return dst
}

// sorted returns the members ascending in a fresh slice.
func (s *intSet) sorted() []int { return s.appendMembers(make([]int, 0, s.n)) }

// min returns the smallest member; ok is false when empty.
func (s *intSet) min() (int, bool) {
	for i, w := range s.words {
		if w != 0 {
			return i<<6 + bits.TrailingZeros64(w), true
		}
	}
	return 0, false
}
