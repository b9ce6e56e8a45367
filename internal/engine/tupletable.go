package engine

import (
	"hash/maphash"
	"math/bits"
	"slices"
)

// tupleTable interns native tuples of one arity to dense indexes, in
// first-seen order: an open-addressing table with linear probing, keyed
// directly on the tuples' int32 words, which it keeps back to back in one
// array. Interning builds no byte key and hashes no string, and the
// interned tuples share that one backing array.
type tupleTable struct {
	arity  int
	words  []int32  // tuple i is words[i*arity : (i+1)*arity]
	hashes []uint64 // hash of tuple i: growing re-slots without rehashing
	// slots holds 1 + the index of the tuple in each slot, 0 when empty. Its
	// length is a power of two, at least twice the number of tuples.
	slots []int32
}

// tupleSeed keys tupleHash. It is drawn once per process, so data crafted
// against one run's hash does not collide on the next.
var tupleSeed = maphash.String(maphash.MakeSeed(), "tupleTable")

// The multipliers of the wyhash mixing step.
const (
	tupleMix0 = 0xa0761d6478bd642f
	tupleMix1 = 0xe7037ed1a0b428db
)

// tupleHash hashes the words of t under the process seed, folding each word
// in with one 64×64→128-bit multiply whose halves are xored (wyhash's mix).
func tupleHash(t []int32) uint64 {
	h := tupleSeed
	for _, w := range t {
		hi, lo := bits.Mul64(uint64(uint32(w))^tupleMix0, h^tupleMix1)
		h = hi ^ lo
	}
	return h
}

func newTupleTable(arity int) *tupleTable {
	return &tupleTable{arity: arity, slots: make([]int32, 8)}
}

// len returns the number of interned tuples.
func (tt *tupleTable) len() int { return len(tt.hashes) }

// tuple returns interned tuple i. The slice is capped at its arity, so
// appending to it never overwrites the next tuple.
func (tt *tupleTable) tuple(i int) []int32 {
	return tt.words[i*tt.arity : (i+1)*tt.arity : (i+1)*tt.arity]
}

// intern returns the index of t (len(t) must be the table's arity), adding a
// copy of it when new; added says it was.
func (tt *tupleTable) intern(t []int32) (i int, added bool) {
	return tt.internHash(tupleHash(t), t)
}

// internHash is intern with the hash of t already computed; tests force
// every tuple onto one hash through it.
func (tt *tupleTable) internHash(h uint64, t []int32) (int, bool) {
	mask := uint64(len(tt.slots) - 1)
	s := h & mask
	for ; tt.slots[s] != 0; s = (s + 1) & mask {
		i := int(tt.slots[s] - 1)
		if tt.hashes[i] == h && slices.Equal(tt.tuple(i), t) {
			return i, false
		}
	}
	i := len(tt.hashes)
	tt.words = append(tt.words, t...)
	tt.hashes = append(tt.hashes, h)
	tt.slots[s] = int32(i + 1)
	if 2*len(tt.hashes) > len(tt.slots) {
		tt.grow()
	}
	return i, true
}

// grow doubles the slot array and re-slots every tuple from its kept hash.
func (tt *tupleTable) grow() {
	tt.slots = make([]int32, 2*len(tt.slots))
	mask := uint64(len(tt.slots) - 1)
	for i, h := range tt.hashes {
		s := h & mask
		for tt.slots[s] != 0 {
			s = (s + 1) & mask
		}
		tt.slots[s] = int32(i + 1)
	}
}
