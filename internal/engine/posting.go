package engine

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Value postings: the index a selection on a base relation starts from, so
// that σ reads the rows it keeps instead of every row of its input — the
// index the paper's MayBMS gets from PostgreSQL under Section 5's rewriting
// of σ.
//
// A posting maps every value of one column to the ascending rows holding
// it, in CSR layout: the rows grouped by value, values ascending, and one
// offset per value of the column's span. The sentinel Placeholder is a
// value like any other, so a posting answers an atom exactly as its column
// kernel would; the rows whose referenced fields are placeholders are
// decided per local world afterwards, as on the scan.
//
// Postings are built lazily, by the first selection that asks for one, on
// columns of relations a snapshot holds (never on arena results), and are
// never persisted: the snapshot format, the WAL and the wire are unaware of
// them. The build ticks the guard of the query that asks, so a canceled
// query stops it; the posting outlives that query and is not charged to
// its memory budget. A posting is immutable and keyed to its column slice:
// relation copies that share a column share its slot, and every write that
// replaces a column gives the copy a fresh slot (Store.markUncertain). The
// only in-place column write, on a column created or copied in the current
// store epoch, meets a slot no snapshot reader could have built.

const (
	// postingMinRows is the smallest column that gets a posting: below it
	// a scan is about as cheap as reading one.
	postingMinRows = 4096
	// postingMaxValues bounds the span of values (max − min + 1, sentinel
	// included) of a column that gets a posting, and so its distinct
	// values and its offset array (4 B per value). The census codes span
	// at most 100.
	postingMaxValues = 1024
)

// posting is the value → rows index of one column.
type posting struct {
	col *int32 // the column indexed: its first cell
	lo  int32  // the smallest value
	// off has one entry per value of the span plus one: the rows holding
	// value lo+v are rows[off[v]:off[v+1]], ascending.
	off  []int32
	rows []int32
}

// postSlot builds one column's posting at most once; p stays nil for a
// column that gets none. A build stopped by its query's guard leaves the
// slot unbuilt for the next reader.
type postSlot struct {
	mu   sync.Mutex
	done atomic.Bool // p is set: built, or nil for a column that gets none
	p    *posting
}

// newPostSlots returns fresh slots for a relation of n columns.
func newPostSlots(n int) []*postSlot {
	slots := make([]postSlot, n)
	out := make([]*postSlot, n)
	for i := range out {
		out[i] = &slots[i]
	}
	return out
}

// posting returns the posting of column ai, building it on first use and
// ticking g for every row the build reads, or nil when the column gets
// none: an arena result, a column under postingMinRows rows or spanning
// more than postingMaxValues values. It is also nil when g stops the
// build; the caller then scans, and the scan's first tick reports g's
// error. Safe for concurrent use: concurrent first readers build it once.
func (r *Relation) posting(ai uint16, g *Guard) *posting {
	if r.posts == nil {
		return nil
	}
	col, s := r.Cols[ai], r.posts[ai]
	if !s.done.Load() {
		s.mu.Lock()
		if !s.done.Load() {
			p, err := buildPosting(col, g)
			if err != nil {
				s.mu.Unlock()
				return nil
			}
			s.p = p
			s.done.Store(true)
		}
		s.mu.Unlock()
	}
	if s.p == nil || s.p.col != &col[0] {
		return nil
	}
	return s.p
}

// buildPosting indexes col by a two-pass counting sort: count every value,
// turn the counts into offsets, then place every row. Each pass ticks g a
// batch of guardPeriod rows at a time.
func buildPosting(col []int32, g *Guard) (*posting, error) {
	if len(col) < postingMinRows {
		return nil, nil
	}
	lo, hi := col[0], col[0]
	err := inBatches(g, len(col), func(i, j int) {
		for _, v := range col[i:j] {
			lo, hi = min(lo, v), max(hi, v)
		}
	})
	if err != nil || int64(hi)-int64(lo) >= postingMaxValues {
		return nil, err
	}
	p := &posting{col: &col[0], lo: lo, off: make([]int32, hi-lo+2), rows: make([]int32, len(col))}
	err = inBatches(g, len(col), func(i, j int) {
		for _, v := range col[i:j] {
			p.off[v-lo+1]++
		}
	})
	if err != nil {
		return nil, err
	}
	for v := 1; v < len(p.off); v++ {
		p.off[v] += p.off[v-1]
	}
	next := append([]int32(nil), p.off[:len(p.off)-1]...)
	err = inBatches(g, len(col), func(i, j int) {
		for k, v := range col[i:j] {
			p.rows[next[v-lo]] = int32(i + k)
			next[v-lo]++
		}
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// inBatches calls fn on the batches [i, j) of guardPeriod rows of n rows,
// ticking g for each first.
func inBatches(g *Guard, n int, fn func(i, j int)) error {
	for i := 0; i < n; i += guardPeriod {
		j := min(i+guardPeriod, n)
		if err := g.tickN(j - i); err != nil {
			return err
		}
		fn(i, j)
	}
	return nil
}

// span is the rows of a run of consecutive values of one posting, grouped
// by value; sorted when the run holds a single value.
type span struct {
	rows   []int32
	sorted bool
}

// between returns the span of the values in [a, b], trimmed to the values
// present.
func (p *posting) between(a, b int64) span {
	a, b = max(a, int64(p.lo)), min(b, int64(p.lo)+int64(len(p.off))-2)
	i, j := a-int64(p.lo), b-int64(p.lo)
	for i <= j && p.off[i] == p.off[i+1] {
		i++
	}
	for i <= j && p.off[j] == p.off[j+1] {
		j--
	}
	if i > j {
		return span{}
	}
	return span{rows: p.rows[p.off[i]:p.off[j+1]], sorted: i == j}
}

// cover returns the spans whose rows together are exactly the rows cp's
// kernels keep on r, and their total length, when postings can say: an
// atom A θ c, or a disjunction of such over one attribute folded into value
// ranges, over a column with a posting.
func cover(r *Relation, cp CompiledPred, g *Guard) (spans []span, n int, ok bool) {
	ai, rs, ok := valueRanges(cp)
	if !ok {
		return nil, 0, false
	}
	post := r.posting(ai, g)
	if post == nil {
		return nil, 0, false
	}
	for _, v := range rs {
		s := post.between(int64(v.lo), int64(v.hi))
		spans = append(spans, s)
		n += len(s.rows)
	}
	return spans, n, true
}

// drive picks how a selection of cp on r starts: from the candidate rows of
// its conjunct with the fewest rows in its posting (see cover) —
// ascending, read-only, every row cp's kernels keep among them — with rest
// the conjuncts left to run over them; or, with ok false, from a scan of
// every row, when no conjunct has a posting or even the best keeps more
// than half of the rows. g is ticked by the postings built on the way.
func drive(r *Relation, cp CompiledPred, g *Guard) (cand []int32, rest CompiledPred, ok bool) {
	kids := []CompiledPred{cp}
	if l, isList := cp.(compiledList); isList && l.conj {
		kids = l.kids
	}
	best, bestN := -1, r.NumRows()/2+1
	var spans []span
	for k, kid := range kids {
		if s, n, ok := cover(r, kid, g); ok && n < bestN {
			best, bestN, spans = k, n, s
		}
	}
	if best < 0 {
		return nil, nil, false
	}
	rest = compiledList{conj: true, kids: append(kids[:best:best], kids[best+1:]...)}
	return readOut(spans, bestN, r.NumRows()), rest, true
}

// readOut returns the rows of spans (n in total, over a relation of rows
// rows) ascending and distinct: a single sorted span as it stands, more by
// OR-ing them into a row bitmap read out in order.
func readOut(spans []span, n, rows int) []int32 {
	var last span
	nonEmpty := 0
	for _, s := range spans {
		if len(s.rows) > 0 {
			last = s
			nonEmpty++
		}
	}
	switch {
	case nonEmpty == 0:
		return nil
	case nonEmpty == 1 && last.sorted:
		return last.rows
	}
	bm := make([]uint64, (rows+63)/64)
	for _, s := range spans {
		for _, row := range s.rows {
			bm[row>>6] |= 1 << (row & 63)
		}
	}
	out := make([]int32, 0, n)
	for w, word := range bm {
		for word != 0 {
			out = append(out, int32(w<<6+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return out
}
