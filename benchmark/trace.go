package main

import (
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded from the benchmark's own
// files around the layer's public functions. Spans of one operation share its
// request id; Parent is the span that caused this one (0 for the operation's
// root span).
type span struct {
	Request int    `json:"request"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// setupRequestID is the request id of spans that are on no operation's path:
// set-up and ad-hoc costs.
const setupRequestID = 0

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced replay runs the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex // shard workers record spans concurrently
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(request, parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Request: request, ID: len(t.spans) + 1, Parent: parent, Layer: layer, Name: name, StartNS: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover. Children may overlap (shard workers
// run side by side), so the covered part is the union of their intervals,
// clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// layerRow is one line of the layer table: every span of one (layer, name).
// Setup marks rows made of request-0 spans: set-up and ad-hoc costs that are
// not on any operation's path.
type layerRow struct {
	Layer, Name string
	Setup       bool
	Calls       int
	SelfNS      int64 // summed self time
	BusyNS      int64 // summed duration (children included)
}

// layerTable aggregates spans by layer and name, in first-seen order.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	index := make(map[[2]string]int)
	var rows []layerRow
	for _, s := range spans {
		key := [2]string{s.Layer, s.Name}
		i, ok := index[key]
		if !ok {
			i = len(rows)
			index[key] = i
			rows = append(rows, layerRow{Layer: s.Layer, Name: s.Name, Setup: s.Request == setupRequestID})
		}
		rows[i].Calls++
		rows[i].SelfNS += self[s.ID]
		rows[i].BusyNS += s.EndNS - s.StartNS
	}
	return rows
}
