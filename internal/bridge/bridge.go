// Package bridge converts columnar engine state into the generic WSD model
// of internal/core, the representation the paper-reproduction packages
// (confidence, normalize, chase, worlds) operate on. It is the reference
// oracle's way in: the engine's operators and native confidence computation
// are differential-tested against per-world evaluation through it, and
// examples use it to hand small engine results to those packages. Nothing
// that serves a request imports it — the engine answers across-world
// queries natively (engine/conf.go) — and the maybms-vet layering analyzer
// keeps it that way.
package bridge

import (
	"encoding/binary"
	"fmt"

	"maybms/internal/core"
	"maybms/internal/engine"
	"maybms/internal/relation"
	"maybms/internal/worlds"
)

// ToWSD converts every live relation of the store into one WSD. Values
// become relation.Int; absent fields become ⊥.
func ToWSD(s *engine.Store) (*core.WSD, error) {
	return ToWSDOf(s, s.Relations()...)
}

// ToWSDOf converts only the named relations — and the components reachable
// from them, as seen through the view (arena results shadowing the shared
// components they extended) — into a WSD. Components spanning both named
// and unnamed relations are marginalized: the fields of unnamed relations
// are projected away and local worlds that become indistinguishable merge,
// summing their probabilities. The result carries the exact distribution of
// the named relations, at a size independent of everything else in the
// store.
func ToWSDOf(v engine.View, names ...string) (*core.WSD, error) {
	include := make(map[*engine.Relation]bool, len(names))
	var rels []worlds.RelSchema
	var included []*engine.Relation
	maxCard := make(map[string]int)
	for _, name := range names {
		r := v.Rel(name)
		if r == nil {
			return nil, fmt.Errorf("bridge: unknown relation %q", name)
		}
		if include[r] {
			return nil, fmt.Errorf("bridge: relation %q named twice", name)
		}
		include[r] = true
		included = append(included, r)
		rels = append(rels, worlds.RelSchema{Name: r.Name, Attrs: append([]string(nil), r.Attrs...)})
		maxCard[r.Name] = r.NumRows()
	}
	w := core.New(worlds.NewSchema(rels...), maxCard)

	// Uncertain fields: one core component per reachable engine component,
	// restricted to the fields of the named relations.
	var compErr error
	v.EachComp(func(c *engine.Component) {
		if compErr != nil {
			return
		}
		var keep []int // column indexes of fields in named relations
		var fields []core.FieldRef
		for i, f := range c.Fields {
			if r := v.RelByID(f.Rel); r != nil && include[r] {
				keep = append(keep, i)
				fields = append(fields, core.FieldRef{Rel: r.Name, Tuple: int(f.Row) + 1, Attr: r.Attrs[f.Attr]})
			}
		}
		if len(keep) == 0 {
			return
		}
		cc := core.NewComponent(fields)
		// Marginalize: project each local world onto the kept fields and
		// merge duplicates, summing probabilities.
		seen := make(map[string]int, len(c.Rows))
		var merged []core.Row
		key := make([]byte, 0, 5*len(keep))
		for _, row := range c.Rows {
			key = key[:0]
			for _, col := range keep {
				if row.IsAbsent(col) {
					key = append(key, 1, 0, 0, 0, 0)
				} else {
					key = binary.BigEndian.AppendUint32(append(key, 0), uint32(row.Vals[col]))
				}
			}
			if j, ok := seen[string(key)]; ok {
				merged[j].P += row.P
				continue
			}
			vals := make([]relation.Value, len(keep))
			for i, col := range keep {
				if row.IsAbsent(col) {
					vals[i] = relation.Bottom()
				} else {
					vals[i] = relation.Int(int64(row.Vals[col]))
				}
			}
			seen[string(key)] = len(merged)
			merged = append(merged, core.Row{Values: vals, P: row.P})
		}
		for _, row := range merged {
			cc.AddRow(row)
		}
		if err := w.AddComponent(cc); err != nil {
			compErr = err
		}
	})
	if compErr != nil {
		return nil, compErr
	}

	// Certain fields: single-row components with probability 1.
	for _, r := range included {
		for i := 0; i < r.NumRows(); i++ {
			for ai, a := range r.Attrs {
				val := r.Cols[ai][i]
				if val == engine.Placeholder {
					continue
				}
				f := core.FieldRef{Rel: r.Name, Tuple: i + 1, Attr: a}
				cc := core.NewComponent([]core.FieldRef{f},
					core.Row{Values: []relation.Value{relation.Int(int64(val))}, P: 1})
				if err := w.AddComponent(cc); err != nil {
					return nil, err
				}
			}
		}
	}
	return w, nil
}

// RepRelation enumerates the world-set of one relation as seen through the
// view. It goes through the scoped conversion, so enumeration cost is driven
// by the one relation rather than the whole store.
func RepRelation(v engine.View, rel string, maxWorlds int) (*worlds.WorldSet, error) {
	w, err := ToWSDOf(v, rel)
	if err != nil {
		return nil, err
	}
	return w.RepRelation(rel, maxWorlds)
}
