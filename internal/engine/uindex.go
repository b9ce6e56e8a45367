package engine

import "slices"

// uncIndex is a relation's uncertainty index in compressed-row form: rows
// lists the template rows holding at least one placeholder, ascending, and
// the placeholder attributes of rows[i] are attrs[off[i]:off[i+1]],
// ascending. It is a pure function of the template's Placeholder cells.
//
// The index is shared like a column: copies of a relation object share it,
// and it is immutable once the relation is published. Operators build their
// results' indexes append-only in row order (add); the one in-place writer,
// Store.markUncertain, copies it first unless the current epoch created it.
// Readers merge-walk it against a selection vector or look a row up by
// binary search (of).
type uncIndex struct {
	rows  []int32
	off   []int32
	attrs []uint16
}

// at returns the placeholder attributes of the i-th indexed row.
func (x *uncIndex) at(i int) []uint16 { return x.attrs[x.off[i]:x.off[i+1]] }

// of returns the placeholder attributes of template row row, nil when the
// row is certain.
func (x *uncIndex) of(row int32) []uint16 {
	if i, ok := slices.BinarySearch(x.rows, row); ok {
		return x.at(i)
	}
	return nil
}

// add appends attribute attr of row; (row, attr) must follow every entry.
func (x *uncIndex) add(row int32, attr uint16) {
	if n := len(x.rows); n == 0 || x.rows[n-1] != row {
		if n == 0 {
			x.off = append(x.off, 0)
		}
		x.rows = append(x.rows, row)
		x.off = append(x.off, 0)
	}
	x.attrs = append(x.attrs, attr)
	x.off[len(x.off)-1] = int32(len(x.attrs))
}

// insert adds (row, attr), editing the arrays in place: the caller must own
// them. A cell after every entry appends — row-order loads such as
// census.AddNoise stay linear — and any other rebuilds the index.
func (x *uncIndex) insert(row int32, attr uint16) {
	if n := len(x.rows); n == 0 || row > x.rows[n-1] || row == x.rows[n-1] && attr > x.attrs[len(x.attrs)-1] {
		x.add(row, attr)
		return
	}
	*x = x.with(placeholderCells{cellKey(int(row), int(attr))})
}

// clone copies the index arrays.
func (x *uncIndex) clone() uncIndex {
	return uncIndex{rows: slices.Clone(x.rows), off: slices.Clone(x.off), attrs: slices.Clone(x.attrs)}
}

// with returns the index plus the placeholder cells c, merged in one pass
// into new arrays (x is not edited).
func (x *uncIndex) with(c placeholderCells) uncIndex {
	slices.Sort(c)
	out := uncIndex{
		rows:  make([]int32, 0, len(x.rows)+len(c)),
		off:   make([]int32, 0, len(x.rows)+len(c)+1),
		attrs: make([]uint16, 0, len(x.attrs)+len(c)),
	}
	k := 0
	for i, row := range x.rows {
		for _, a := range x.at(i) {
			for ; k < len(c) && c[k] < cellKey(int(row), int(a)); k++ {
				out.add(int32(c[k]>>16), uint16(c[k]))
			}
			out.add(row, a)
		}
	}
	for ; k < len(c); k++ {
		out.add(int32(c[k]>>16), uint16(c[k]))
	}
	return out
}

// placeholderCells collects (row, attr) cells holding placeholders, in any
// order, for uncIndex.with.
type placeholderCells []uint64

func cellKey(row, attr int) uint64 { return uint64(row)<<16 | uint64(attr) }

func (c *placeholderCells) note(row, attr int) { *c = append(*c, cellKey(row, attr)) }
