package storage

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"maybms/internal/engine"
)

// The snapshot container format (docs/snapshot-format.md):
//
//	file    := header section* footer
//	header  := "MYBS" u32 version u32 sectionCount u32 reserved
//	section := u32 kind  u64 payloadLen  payload  u32 crc32(payload)
//	footer  := "MYBE" u32 crc32(section crcs, LE-concatenated)
//
// Section kinds (one META, one RELHDR per catalog slot, one COLUMN per
// template column, one COMPONENT per component; emitted in that order,
// relations by id, columns by (rel, attr), components by id — so equal
// states serialize to equal bytes):
//
//	META      := i32 nextCID  i64 scratchSeq  u32 numRelSlots  u32 numComps
//	RELHDR    := u32 relID  u8 present  [str name  u32 numAttrs  str*  u32 numRows]
//	COLUMN    := u32 relID  u32 attrIdx  i32[numRows] raw values
//	COMPONENT := i32 id  u32 numFields  (i32 rel, i32 row, u16 attr)*
//	             u32 numRows  i32[numRows*numFields] vals
//	             u64[numRows*ceil(numFields/64)] absent  f64[numRows] probs

// Snapshot format identity.
const (
	snapMagic       = "MYBS"
	snapFooterMagic = "MYBE"
	snapVersion     = 1
)

// Section kinds.
const (
	secMeta      = 1
	secRelHdr    = 2
	secColumn    = 3
	secComponent = 4
)

// maxSectionLen bounds a single section (checked before reading); the
// chunked reader below additionally never allocates ahead of the actual
// bytes, so a lying header cannot OOM the loader.
const maxSectionLen = 1 << 33

// Snapshotable produces a point-in-time snapshot of an engine store.
// *engine.Store is the canonical implementation; anything wrapping one can
// forward to it.
type Snapshotable interface {
	Snapshot() *engine.Snapshot
}

// Save serializes a snapshot of src. The write is buffered; callers
// persisting to disk own syncing and atomically renaming the file (Dir does
// both).
func Save(src Snapshotable, w io.Writer) error {
	return SaveState(src.Snapshot().ExportState(), w)
}

// SaveState serializes an exported store state. Sections are encoded in
// order, each into one reused buffer, checksummed and written.
func SaveState(st *engine.StoreState, w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	jobs := sectionJobs(st)
	// Header.
	if _, err := bw.WriteString(snapMagic); err != nil {
		return fmt.Errorf("storage: writing snapshot magic: %w", err)
	}
	var hdr enc
	hdr.u32(snapVersion)
	hdr.u32(uint32(len(jobs)))
	hdr.u32(0)
	if _, err := bw.Write(hdr.b); err != nil {
		return fmt.Errorf("storage: writing snapshot header: %w", err)
	}
	var crcs, e, frame enc
	for _, j := range jobs {
		e.reset()
		j.encode(&e)
		crc := crc32.ChecksumIEEE(e.b)
		crcs.u32(crc)
		frame.reset()
		frame.u32(j.kind)
		frame.u64(uint64(len(e.b)))
		if _, err := bw.Write(frame.b); err != nil {
			return fmt.Errorf("storage: writing section header: %w", err)
		}
		if _, err := bw.Write(e.b); err != nil {
			return fmt.Errorf("storage: writing section payload: %w", err)
		}
		frame.reset()
		frame.u32(crc)
		if _, err := bw.Write(frame.b); err != nil {
			return fmt.Errorf("storage: writing section checksum: %w", err)
		}
	}
	// Footer: seals the section list against boundary truncation.
	if _, err := bw.WriteString(snapFooterMagic); err != nil {
		return fmt.Errorf("storage: writing snapshot footer: %w", err)
	}
	var foot enc
	foot.u32(crc32.ChecksumIEEE(crcs.b))
	if _, err := bw.Write(foot.b); err != nil {
		return fmt.Errorf("storage: writing snapshot footer checksum: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("storage: flushing snapshot: %w", err)
	}
	return nil
}

// secJob is one section of a snapshot: its kind and a payload encoder. The
// header counts the sections before any is written, so they are listed
// first; the emit order (META, RELHDRs by id, COLUMNs by (rel, attr),
// COMPONENTs by id) is fixed by the format.
type secJob struct {
	kind   uint32
	encode func(e *enc)
}

func sectionJobs(st *engine.StoreState) []secJob {
	n := 1 + len(st.Rels) + len(st.Comps)
	for _, r := range st.Rels {
		if r != nil {
			n += len(r.Cols)
		}
	}
	jobs := make([]secJob, 0, n)
	// META.
	jobs = append(jobs, secJob{secMeta, func(e *enc) {
		e.i32(st.NextCID)
		e.i64(st.ScratchSeq)
		e.u32(uint32(len(st.Rels)))
		e.u32(uint32(len(st.Comps)))
	}})
	// RELHDR per catalog slot (dropped slots persist as absent: components
	// key relations by id, so the id space must survive round trips).
	for id, r := range st.Rels {
		jobs = append(jobs, secJob{secRelHdr, func(e *enc) {
			e.u32(uint32(id))
			if r == nil {
				e.u8(0)
				return
			}
			e.u8(1)
			e.str(r.Name)
			e.u32(uint32(len(r.Attrs)))
			for _, a := range r.Attrs {
				e.str(a)
			}
			n := 0
			if len(r.Cols) > 0 {
				n = len(r.Cols[0])
			}
			e.u32(uint32(n))
		}})
	}
	// COLUMN sections: one raw bulk write per template column.
	for id, r := range st.Rels {
		if r == nil {
			continue
		}
		for a, col := range r.Cols {
			jobs = append(jobs, secJob{secColumn, func(e *enc) {
				e.u32(uint32(id))
				e.u32(uint32(a))
				for _, v := range col {
					e.i32(v)
				}
			}})
		}
	}
	// COMPONENT sections: vals, absence bitmaps and probabilities each as
	// one contiguous run.
	for _, c := range st.Comps {
		jobs = append(jobs, secJob{secComponent, func(e *enc) {
			e.i32(c.ID)
			e.u32(uint32(len(c.Fields)))
			for _, f := range c.Fields {
				e.i32(f.Rel)
				e.i32(f.Row)
				e.u16(f.Attr)
			}
			e.u32(uint32(len(c.Rows)))
			for _, row := range c.Rows {
				for _, v := range row.Vals {
					e.i32(v)
				}
			}
			words := (len(c.Fields) + 63) / 64
			for _, row := range c.Rows {
				for w := 0; w < words; w++ {
					var word uint64
					if w < len(row.Absent) {
						word = row.Absent[w]
					}
					e.u64(word)
				}
			}
			for _, row := range c.Rows {
				e.u64(math.Float64bits(row.P))
			}
		}})
	}
	return jobs
}

// Load deserializes a snapshot into a fresh live store, re-deriving the
// engine's indexes and re-validating its invariants. All failures wrap one
// of the typed errors above.
func Load(r io.Reader) (*engine.Store, error) {
	st, err := LoadState(r)
	if err != nil {
		return nil, err
	}
	s, err := engine.ImportState(st)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return s, nil
}

// LoadState reads and verifies the container, returning the decoded flat
// state without building a live store.
func LoadState(r io.Reader) (*engine.StoreState, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	hdr, err := readFull(br, 16)
	if err != nil {
		return nil, err
	}
	if string(hdr[:4]) != snapMagic {
		return nil, fmt.Errorf("%w: %q is not a snapshot header", ErrBadMagic, hdr[:4])
	}
	if v := le32(hdr[4:]); v != snapVersion {
		return nil, fmt.Errorf("%w: snapshot version %d (supported: %d)", ErrBadVersion, v, snapVersion)
	}
	sections := le32(hdr[8:])
	b := &snapBuilder{}
	var crcs enc
	for i := uint32(0); i < sections; i++ {
		sh, err := readFull(br, 12)
		if err != nil {
			return nil, err
		}
		kind := le32(sh)
		n := le64(sh[4:])
		if n > maxSectionLen {
			return nil, fmt.Errorf("%w: section %d claims %d bytes", ErrCorrupt, i, n)
		}
		payload, err := readFull(br, n)
		if err != nil {
			return nil, err
		}
		tail, err := readFull(br, 4)
		if err != nil {
			return nil, err
		}
		want := le32(tail)
		if got := crc32.ChecksumIEEE(payload); got != want {
			return nil, fmt.Errorf("%w: section %d crc %08x, want %08x", ErrChecksum, i, got, want)
		}
		crcs.u32(want)
		if err := b.section(kind, payload); err != nil {
			return nil, err
		}
	}
	foot, err := readFull(br, 8)
	if err != nil {
		return nil, err
	}
	if string(foot[:4]) != snapFooterMagic {
		return nil, fmt.Errorf("%w: bad footer magic %q", ErrCorrupt, foot[:4])
	}
	if got := crc32.ChecksumIEEE(crcs.b); got != le32(foot[4:]) {
		return nil, fmt.Errorf("%w: footer crc over section list", ErrChecksum)
	}
	return b.finish()
}

// snapBuilder accumulates decoded sections and cross-checks them against
// the META counts and each other.
type snapBuilder struct {
	meta    bool
	numRels uint32
	comps   uint32
	st      engine.StoreState
	// colsSeen counts decoded columns per relation id.
	colsSeen map[uint32]int
	// rows is the declared row count per relation id.
	rows map[uint32]uint32
}

func (b *snapBuilder) section(kind uint32, payload []byte) error {
	d := &dec{b: payload}
	switch kind {
	case secMeta:
		if b.meta {
			return fmt.Errorf("%w: duplicate META section", ErrCorrupt)
		}
		b.meta = true
		var err error
		if b.st.NextCID, err = d.i32(); err != nil {
			return err
		}
		if b.st.ScratchSeq, err = d.i64(); err != nil {
			return err
		}
		if b.numRels, err = d.u32(); err != nil {
			return err
		}
		if b.comps, err = d.u32(); err != nil {
			return err
		}
		if b.numRels > 1<<20 || b.comps > 1<<28 {
			return fmt.Errorf("%w: META counts out of range (%d relations, %d components)", ErrCorrupt, b.numRels, b.comps)
		}
		b.st.Rels = make([]*engine.RelState, b.numRels)
		b.st.Comps = make([]*engine.CompState, 0, min64(uint64(b.comps), 1<<20))
		b.colsSeen = make(map[uint32]int)
		b.rows = make(map[uint32]uint32)
		return d.done()
	case secRelHdr:
		if !b.meta {
			return fmt.Errorf("%w: RELHDR before META", ErrCorrupt)
		}
		id, err := d.u32()
		if err != nil {
			return err
		}
		if id >= b.numRels {
			return fmt.Errorf("%w: RELHDR id %d outside catalog of %d", ErrCorrupt, id, b.numRels)
		}
		present, err := d.u8()
		if err != nil {
			return err
		}
		if present == 0 {
			return d.done()
		}
		if b.st.Rels[id] != nil {
			return fmt.Errorf("%w: duplicate RELHDR for relation %d", ErrCorrupt, id)
		}
		rs := &engine.RelState{}
		if rs.Name, err = d.str(); err != nil {
			return err
		}
		nattrs, err := d.u32()
		if err != nil {
			return err
		}
		if uint64(nattrs) > uint64(len(payload)) {
			return fmt.Errorf("%w: RELHDR claims %d attributes", ErrCorrupt, nattrs)
		}
		rs.Attrs = make([]string, nattrs)
		for i := range rs.Attrs {
			if rs.Attrs[i], err = d.str(); err != nil {
				return err
			}
		}
		nrows, err := d.u32()
		if err != nil {
			return err
		}
		rs.Cols = make([][]int32, nattrs)
		b.rows[id] = nrows
		b.st.Rels[id] = rs
		return d.done()
	case secColumn:
		id, err := d.u32()
		if err != nil {
			return err
		}
		if id >= uint32(len(b.st.Rels)) || b.st.Rels[id] == nil {
			return fmt.Errorf("%w: COLUMN for unknown relation %d", ErrCorrupt, id)
		}
		rs := b.st.Rels[id]
		attr, err := d.u32()
		if err != nil {
			return err
		}
		if attr >= uint32(len(rs.Cols)) {
			return fmt.Errorf("%w: COLUMN %d outside %d attributes of relation %d", ErrCorrupt, attr, len(rs.Cols), id)
		}
		if rs.Cols[attr] != nil {
			return fmt.Errorf("%w: duplicate COLUMN (%d, %d)", ErrCorrupt, id, attr)
		}
		nrows := b.rows[id]
		raw, err := d.need(uint64(nrows) * 4)
		if err != nil {
			return err
		}
		col := make([]int32, nrows)
		for i := range col {
			col[i] = int32(le32(raw[i*4:]))
		}
		rs.Cols[attr] = col
		b.colsSeen[id]++
		return d.done()
	case secComponent:
		cs := &engine.CompState{}
		var err error
		if cs.ID, err = d.i32(); err != nil {
			return err
		}
		nf, err := d.u32()
		if err != nil {
			return err
		}
		if nf == 0 || uint64(nf)*10 > uint64(len(payload)) {
			return fmt.Errorf("%w: COMPONENT %d claims %d fields", ErrCorrupt, cs.ID, nf)
		}
		cs.Fields = make([]engine.FieldID, nf)
		for i := range cs.Fields {
			if cs.Fields[i].Rel, err = d.i32(); err != nil {
				return err
			}
			if cs.Fields[i].Row, err = d.i32(); err != nil {
				return err
			}
			if cs.Fields[i].Attr, err = d.u16(); err != nil {
				return err
			}
		}
		nr, err := d.u32()
		if err != nil {
			return err
		}
		words := (int(nf) + 63) / 64
		needBytes := uint64(nr) * (uint64(nf)*4 + uint64(words)*8 + 8)
		if uint64(len(payload)-d.off) < needBytes {
			return fmt.Errorf("%w: COMPONENT %d claims %d local worlds", ErrCorrupt, cs.ID, nr)
		}
		valsRaw, err := d.need(uint64(nr) * uint64(nf) * 4)
		if err != nil {
			return err
		}
		// One backing array for all rows' values; each row's slice is
		// capacity-capped so a later in-place extension reallocates
		// instead of clobbering its neighbor.
		vals := make([]int32, int(nr)*int(nf))
		for i := range vals {
			vals[i] = int32(le32(valsRaw[i*4:]))
		}
		absRaw, err := d.need(uint64(nr) * uint64(words) * 8)
		if err != nil {
			return err
		}
		absWords := make([]uint64, int(nr)*words)
		for i := range absWords {
			absWords[i] = le64(absRaw[i*8:])
		}
		cs.Rows = make([]engine.CompRow, nr)
		for i := range cs.Rows {
			cs.Rows[i].Vals = vals[i*int(nf) : (i+1)*int(nf) : (i+1)*int(nf)]
			w := absWords[i*words : (i+1)*words : (i+1)*words]
			// A bitmap with no set bits round-trips as nil, matching the
			// engine's own representation of "no absent fields".
			any := false
			for _, x := range w {
				if x != 0 {
					any = true
					break
				}
			}
			if any {
				cs.Rows[i].Absent = engine.Bitset(w)
			}
			p, err := d.u64()
			if err != nil {
				return err
			}
			cs.Rows[i].P = math.Float64frombits(p)
			if math.IsNaN(cs.Rows[i].P) || cs.Rows[i].P < 0 || cs.Rows[i].P > 1 {
				return fmt.Errorf("%w: COMPONENT %d local world %d has probability %g", ErrCorrupt, cs.ID, i, cs.Rows[i].P)
			}
		}
		b.st.Comps = append(b.st.Comps, cs)
		return d.done()
	}
	return fmt.Errorf("%w: unknown section kind %d", ErrCorrupt, kind)
}

// finish cross-checks the assembled state against the META counts.
func (b *snapBuilder) finish() (*engine.StoreState, error) {
	if !b.meta {
		return nil, fmt.Errorf("%w: no META section", ErrCorrupt)
	}
	if uint32(len(b.st.Comps)) != b.comps {
		return nil, fmt.Errorf("%w: %d COMPONENT sections, META declared %d", ErrCorrupt, len(b.st.Comps), b.comps)
	}
	for id, rs := range b.st.Rels {
		if rs == nil {
			continue
		}
		if b.colsSeen[uint32(id)] != len(rs.Cols) {
			return nil, fmt.Errorf("%w: relation %d has %d of %d columns", ErrCorrupt, id, b.colsSeen[uint32(id)], len(rs.Cols))
		}
	}
	return &b.st, nil
}
