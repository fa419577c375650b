package graph

import "math/bits"

// Bitset is a fixed-capacity set of small non-negative integers. It backs the
// hot set operations in the coverage-condition evaluators.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns an empty bitset able to hold values in [0, n).
func NewBitset(n int) *Bitset {
	if n < 0 {
		n = 0
	}
	return &Bitset{
		words: make([]uint64, (n+63)/64),
		n:     n,
	}
}

// Set adds x to the set. Out-of-range values are ignored.
func (b *Bitset) Set(x int) {
	if x < 0 || x >= b.n {
		return
	}
	b.words[x>>6] |= 1 << uint(x&63)
}

// Union sets b to b ∪ other. Both bitsets must have the same capacity.
func (b *Bitset) Union(other *Bitset) {
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// Intersects reports whether b ∩ other is non-empty.
func (b *Bitset) Intersects(other *Bitset) bool {
	for i, w := range other.words {
		if b.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// Elements appends the members of the set to dst in ascending order and
// returns the extended slice.
func (b *Bitset) Elements(dst []int) []int {
	for i, w := range b.words {
		base := i << 6
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			dst = append(dst, base+bit)
			w &= w - 1
		}
	}
	return dst
}
