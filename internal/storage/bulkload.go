package storage

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"maybms/internal/engine"
)

// BulkLoader builds one relation's columns and or-set components directly in
// the flat export form, then installs them through engine.ImportState in a
// single validated step. Compared with the row-at-a-time path (AddRelation
// plus one SetUncertain per or-set) there is no per-field locking, no
// per-component map rebuild and no per-row allocation: column appends are
// batched, single-element field and value slices come from slabs, and the
// derived indexes are built exactly once at the end.
type BulkLoader struct {
	rel   string
	attrs []string
	cols  [][]int32
	comps []*engine.CompState

	// Slabs backing the per-component single-element slices. Every slice cut
	// from a slab is capacity-capped, so a later append (the engine's
	// addField) reallocates instead of clobbering a neighbour.
	fieldSlab []engine.FieldID
	valSlab   []int32
	rowSlab   []engine.CompRow

	nrows int
}

// NewBulkLoader starts a loader for one relation with the given attribute
// names.
func NewBulkLoader(rel string, attrs []string) (*BulkLoader, error) {
	if rel == "" {
		return nil, fmt.Errorf("storage: bulk load: empty relation name")
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("storage: bulk load: no attributes")
	}
	return &BulkLoader{rel: rel, attrs: attrs, cols: make([][]int32, len(attrs))}, nil
}

// Append adds one template row. alts[i] holds the alternatives for attribute
// i: one value for a certain field, two or more for an or-set field (a fresh
// component with uniform local-world probabilities).
func (b *BulkLoader) Append(alts [][]int32) error {
	if len(alts) != len(b.attrs) {
		return fmt.Errorf("storage: bulk load: %d fields for %d attributes", len(alts), len(b.attrs))
	}
	row := int32(b.nrows)
	for i, vs := range alts {
		if len(vs) == 0 {
			return fmt.Errorf("storage: bulk load: empty alternative list for attribute %s", b.attrs[i])
		}
		for _, v := range vs {
			if v < 0 {
				return fmt.Errorf("storage: bulk load: negative value %d for attribute %s", v, b.attrs[i])
			}
		}
		if len(vs) == 1 {
			b.cols[i] = append(b.cols[i], vs[0])
			continue
		}
		b.cols[i] = append(b.cols[i], engine.Placeholder)
		b.addOrSet(row, uint16(i), vs)
	}
	b.nrows++
	return nil
}

// NumRows returns the number of rows appended so far.
func (b *BulkLoader) NumRows() int { return b.nrows }

// NumOrSets returns the number of or-set fields appended so far.
func (b *BulkLoader) NumOrSets() int { return len(b.comps) }

// Build installs the accumulated columns and components as a fresh store,
// deriving the engine's indexes and validating its invariants once. The
// loader must not be reused after Build.
func (b *BulkLoader) Build() (*engine.Store, error) {
	if b.nrows == 0 {
		return nil, fmt.Errorf("storage: bulk load: no rows appended")
	}
	st := &engine.StoreState{
		Rels:    []*engine.RelState{{Name: b.rel, Attrs: b.attrs, Cols: b.cols}},
		Comps:   b.comps,
		NextCID: int32(len(b.comps)),
	}
	s, err := engine.ImportState(st)
	if err != nil {
		return nil, fmt.Errorf("storage: bulk load: %w", err)
	}
	return s, nil
}

// State returns the accumulated relation and components in flat export form,
// for installing into an existing store with engine.Store.InstallRelation
// (field Rel references are 0; InstallRelation remaps them). The loader
// must not be reused after State.
func (b *BulkLoader) State() (*engine.RelState, []*engine.CompState, error) {
	if b.nrows == 0 {
		return nil, nil, fmt.Errorf("storage: bulk load: no rows appended")
	}
	return &engine.RelState{Name: b.rel, Attrs: b.attrs, Cols: b.cols}, b.comps, nil
}

// addOrSet records one uncertain field as a single-field component with
// uniform probabilities. Component ids are assigned in field order, so the
// same input always builds the same store.
func (b *BulkLoader) addOrSet(row int32, attr uint16, vals []int32) {
	rows := b.rowRun(len(vals))
	p := 1 / float64(len(vals))
	for i, v := range vals {
		rows[i] = engine.CompRow{Vals: b.val(v), P: p}
	}
	b.comps = append(b.comps, &engine.CompState{
		ID:     int32(len(b.comps) + 1),
		Fields: b.field(engine.FieldID{Row: row, Attr: attr}),
		Rows:   rows,
	})
}

func (b *BulkLoader) field(f engine.FieldID) []engine.FieldID {
	if len(b.fieldSlab) == cap(b.fieldSlab) {
		b.fieldSlab = make([]engine.FieldID, 0, 4096)
	}
	b.fieldSlab = append(b.fieldSlab, f)
	n := len(b.fieldSlab)
	return b.fieldSlab[n-1 : n : n]
}

func (b *BulkLoader) val(v int32) []int32 {
	if len(b.valSlab) == cap(b.valSlab) {
		b.valSlab = make([]int32, 0, 8192)
	}
	b.valSlab = append(b.valSlab, v)
	n := len(b.valSlab)
	return b.valSlab[n-1 : n : n]
}

func (b *BulkLoader) rowRun(n int) []engine.CompRow {
	if len(b.rowSlab)+n > cap(b.rowSlab) {
		size := 4096
		if n > size {
			size = n
		}
		b.rowSlab = make([]engine.CompRow, 0, size)
	}
	off := len(b.rowSlab)
	b.rowSlab = b.rowSlab[:off+n]
	return b.rowSlab[off : off+n : off+n]
}

// LoadInfo summarizes one CSV bulk load.
type LoadInfo struct {
	Rows   int
	Attrs  int
	OrSets int
}

// LoadCSV bulk-ingests a CSV stream into a fresh store holding one relation
// named rel: the header row names the attributes, fields are non-negative
// integers, and a field of the form "a|b|c" becomes an or-set (a local world
// per alternative, uniform probabilities). name labels the stream in error
// messages (typically the file path); errors name the 1-based CSV line and
// the column. Repeated field strings are parsed once (interned) — census-
// style multiple-choice data repeats a few hundred distinct fields across
// millions of rows.
func LoadCSV(r io.Reader, name, rel string) (*engine.Store, LoadInfo, error) {
	b, info, err := loadCSV(r, name, rel)
	if err != nil {
		return nil, LoadInfo{}, err
	}
	st, err := b.Build()
	if err != nil {
		return nil, LoadInfo{}, fmt.Errorf("%s: %v", name, err)
	}
	return st, info, nil
}

// LoadCSVState is LoadCSV in flat export form: the relation and its
// components, ready for engine.Store.InstallRelation into an existing store
// (the durable CSV-boot path installs into the session's live store this
// way, so the load is one WAL record instead of a snapshot rewrite).
func LoadCSVState(r io.Reader, name, rel string) (*engine.RelState, []*engine.CompState, LoadInfo, error) {
	b, info, err := loadCSV(r, name, rel)
	if err != nil {
		return nil, nil, LoadInfo{}, err
	}
	rs, comps, err := b.State()
	if err != nil {
		return nil, nil, LoadInfo{}, fmt.Errorf("%s: %v", name, err)
	}
	return rs, comps, info, nil
}

func loadCSV(r io.Reader, name, rel string) (*BulkLoader, LoadInfo, error) {
	cr := csv.NewReader(r)
	attrs, err := cr.Read()
	if err != nil {
		return nil, LoadInfo{}, fmt.Errorf("%s: reading header row: %v (is this a CSV file?)", name, err)
	}
	for i, a := range attrs {
		if strings.TrimSpace(a) == "" {
			return nil, LoadInfo{}, fmt.Errorf("%s: header column %d is empty (every column needs an attribute name)", name, i+1)
		}
		attrs[i] = strings.TrimSpace(a)
	}
	b, err := NewBulkLoader(rel, attrs)
	if err != nil {
		return nil, LoadInfo{}, err
	}
	interned := make(map[string][]int32)
	alts := make([][]int32, len(attrs))
	row := 0
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, LoadInfo{}, fmt.Errorf("%s line %d: %v", name, row+2, err)
		}
		for i, field := range rec {
			vals, ok := interned[field]
			if !ok {
				vals, err = ParseField(field)
				if err != nil {
					return nil, LoadInfo{}, fmt.Errorf("%s line %d, column %s: %v", name, row+2, attrs[i], err)
				}
				interned[field] = vals
			}
			alts[i] = vals
		}
		if err := b.Append(alts); err != nil {
			return nil, LoadInfo{}, fmt.Errorf("%s line %d: %v", name, row+2, err)
		}
		row++
	}
	if row == 0 {
		return nil, LoadInfo{}, fmt.Errorf("%s holds a header but no data rows", name)
	}
	return b, LoadInfo{Rows: row, Attrs: len(attrs), OrSets: b.NumOrSets()}, nil
}

// ParseField parses one CSV field: a non-negative integer, or "a|b|c" as an
// or-set of at least two distinct alternatives.
func ParseField(field string) ([]int32, error) {
	parts := strings.Split(field, "|")
	vals := make([]int32, 0, len(parts))
	seen := make(map[int32]bool, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		n, err := strconv.ParseInt(p, 10, 32)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("field %q is not a non-negative integer (the engine stores int32 codes; encode or-sets as a|b|c)", field)
		}
		if seen[int32(n)] {
			return nil, fmt.Errorf("or-set %q repeats value %d", field, n)
		}
		seen[int32(n)] = true
		vals = append(vals, int32(n))
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("field is empty (the engine has no NULL; give a value or an or-set)")
	}
	return vals, nil
}
