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
// A posting is built in two parts, each lazily and at most once, on
// columns of relations a snapshot holds (never on arena results): its value
// counts — the offsets alone, two passes over the column — by the first
// selection or mode query that reads the column, and its rows — one more
// pass — only when the posting drives a selection. A selection picks its
// driving atom from the counts, so one that then scans builds no rows, and
// the tuple-level view (conf.go) reads which values a column admits from
// the counts. Neither part is persisted: the snapshot format, the WAL and
// the wire are unaware of them. A build ticks the guard of the query that
// asks, so a canceled query stops it; what it built outlives that query
// and is not charged to its memory budget. A posting is immutable and
// keyed to its column slice: relation copies that share a column share its
// slot, and every write that replaces a column gives the copy a fresh slot
// (Store.markUncertain). The
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

// valueCounts are the counts of one column's values, as the offsets of a
// posting: value lo+v occurs off[v+1] − off[v] times. They answer how many
// rows an atom keeps, and which values the column admits, without the rows.
type valueCounts struct {
	col *int32 // the column counted: its first cell
	lo  int32  // the smallest value
	off []int32
	// vals is the number of distinct values other than Placeholder, and
	// vmin and vmax the smallest and largest of them (vals > 0).
	vals       int
	vmin, vmax int32
}

// posting is the value → rows index of one column: its counts, and the
// rows holding value lo+v, ascending, at rows[off[v]:off[v+1]].
type posting struct {
	*valueCounts
	rows []int32
}

// postSlot builds one column's counts, and then its rows, each at most
// once; counts stays nil for a column that gets none. The rows are built
// only for a posting that drives a selection. A build stopped by its
// query's guard leaves its part unbuilt for the next reader.
type postSlot struct {
	mu      sync.Mutex
	counted atomic.Bool // counts is set: built, or nil for a column that gets none
	counts  *valueCounts
	placed  atomic.Bool // post is built
	post    *posting
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

// counts returns the value counts of column ai, building them on first use
// and ticking g for every row the build reads, or nil when the column gets
// none: an arena result, a column under postingMinRows rows or spanning
// more than postingMaxValues values. It is also nil when g stops the
// build; the caller then proceeds without, and its next tick reports g's
// error. Safe for concurrent use: concurrent first readers build once.
func (r *Relation) counts(ai uint16, g *Guard) *valueCounts {
	if r.posts == nil {
		return nil
	}
	col, s := r.Cols[ai], r.posts[ai]
	if !s.counted.Load() {
		s.mu.Lock()
		if !s.counted.Load() {
			c, err := countValues(col, g)
			if err != nil {
				s.mu.Unlock()
				return nil
			}
			s.counts = c
			s.counted.Store(true)
		}
		s.mu.Unlock()
	}
	if s.counts == nil || s.counts.col != &col[0] {
		return nil
	}
	return s.counts
}

// posting returns the posting of column ai — its counts (see counts) and
// its rows, each built on first use under g — or nil when the column gets
// no counts or g stops a build. Safe for concurrent use.
func (r *Relation) posting(ai uint16, g *Guard) *posting {
	c := r.counts(ai, g)
	if c == nil {
		return nil
	}
	s := r.posts[ai]
	if !s.placed.Load() {
		s.mu.Lock()
		if !s.placed.Load() {
			rows, err := placeRows(r.Cols[ai], c, g)
			if err != nil {
				s.mu.Unlock()
				return nil
			}
			s.post = &posting{valueCounts: c, rows: rows}
			s.placed.Store(true)
		}
		s.mu.Unlock()
	}
	return s.post
}

// countValues counts col's values in two passes — its span, then every
// value — each ticking g a batch of guardPeriod rows at a time.
func countValues(col []int32, g *Guard) (*valueCounts, error) {
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
	c := &valueCounts{col: &col[0], lo: lo, off: make([]int32, hi-lo+2)}
	err = inBatches(g, len(col), func(i, j int) {
		for _, v := range col[i:j] {
			c.off[v-lo+1]++
		}
	})
	if err != nil {
		return nil, err
	}
	for v := 1; v < len(c.off); v++ {
		if n := c.off[v]; n > 0 && lo+int32(v-1) != Placeholder {
			if c.vals == 0 {
				c.vmin = lo + int32(v-1)
			}
			c.vals, c.vmax = c.vals+1, lo+int32(v-1)
		}
		c.off[v] += c.off[v-1]
	}
	return c, nil
}

// placeRows lists the rows of col grouped by value, as c's offsets lay
// them out: the counting sort's third pass, ticking g per batch.
func placeRows(col []int32, c *valueCounts, g *Guard) ([]int32, error) {
	rows := make([]int32, len(col))
	next := append([]int32(nil), c.off[:len(c.off)-1]...)
	err := inBatches(g, len(col), func(i, j int) {
		for k, v := range col[i:j] {
			rows[next[v-c.lo]] = int32(i + k)
			next[v-c.lo]++
		}
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
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

// window returns the value indexes [i, j] of the values in [a, b] trimmed
// to the values present; i > j when there are none.
func (c *valueCounts) window(a, b int64) (i, j int64) {
	a, b = max(a, int64(c.lo)), min(b, int64(c.lo)+int64(len(c.off))-2)
	i, j = a-int64(c.lo), b-int64(c.lo)
	for i <= j && c.off[i] == c.off[i+1] {
		i++
	}
	for i <= j && c.off[j] == c.off[j+1] {
		j--
	}
	return i, j
}

// between returns the span of the values in [a, b], trimmed to the values
// present.
func (p *posting) between(a, b int64) span {
	i, j := p.window(a, b)
	if i > j {
		return span{}
	}
	return span{rows: p.rows[p.off[i]:p.off[j+1]], sorted: i == j}
}

// keeps returns how many rows cp's kernels keep on r, when the counts can
// say: an atom A θ c, or a disjunction of such over one attribute folded
// into value ranges, over a column with counts.
func keeps(r *Relation, cp CompiledPred, g *Guard) (n int, ok bool) {
	ai, rs, ok := valueRanges(cp)
	if !ok {
		return 0, false
	}
	c := r.counts(ai, g)
	if c == nil {
		return 0, false
	}
	for _, v := range rs {
		if i, j := c.window(int64(v.lo), int64(v.hi)); i <= j {
			n += int(c.off[j+1] - c.off[i])
		}
	}
	return n, true
}

// cover returns the spans whose rows together are exactly the rows cp's
// kernels keep on r (see keeps), building the rows of its column's posting.
func cover(r *Relation, cp CompiledPred, g *Guard) (spans []span, ok bool) {
	ai, rs, ok := valueRanges(cp)
	if !ok {
		return nil, false
	}
	post := r.posting(ai, g)
	if post == nil {
		return nil, false
	}
	for _, v := range rs {
		spans = append(spans, post.between(int64(v.lo), int64(v.hi)))
	}
	return spans, true
}

// drive picks how a selection of cp on r starts: from the candidate rows of
// its conjunct keeping the fewest rows by its column's counts (see keeps) —
// ascending, read-only, every row cp's kernels keep among them — with rest
// the conjuncts left to run over them; or, with ok false, from a scan of
// every row, when no conjunct has counts or even the best keeps more than
// half of the rows. Only the chosen conjunct's posting builds its rows. g
// is ticked by the builds on the way.
func drive(r *Relation, cp CompiledPred, g *Guard) (cand []int32, rest CompiledPred, ok bool) {
	kids := []CompiledPred{cp}
	if l, isList := cp.(compiledList); isList && l.conj {
		kids = l.kids
	}
	best, bestN := -1, r.NumRows()/2+1
	for k, kid := range kids {
		if n, ok := keeps(r, kid, g); ok && n < bestN {
			best, bestN = k, n
		}
	}
	if best < 0 {
		return nil, nil, false
	}
	spans, ok := cover(r, kids[best], g)
	if !ok {
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
