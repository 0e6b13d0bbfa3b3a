package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced interval. Parent is the ID of the span that caused
// it, -1 for the root. Layer names the repository module the interval
// is attributed to.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// tracer keeps spans in memory until write. All spans are recorded from
// the benchmark's own files, around the calls into each layer or cut at
// the timestamps of the events a layer emits. It is used from one
// goroutine at a time.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the trace clock: nanoseconds since the tracer was made.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span; end closes it.
func (t *tracer) begin(name, layer string, parent int) int {
	return t.add(name, layer, parent, t.now(), 0)
}

func (t *tracer) end(id int) { t.spans[id].EndNS = t.now() }

// add records a span whose bounds the caller measured.
func (t *tracer) add(name, layer string, parent int, start, end int64) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Layer: layer, StartNS: start, EndNS: end, Parent: parent})
	return id
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Overlapping children are counted
// once and children are clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.EndNS - s.StartNS - covered
	}
	return self
}

// traceFile is the document written at exit.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// SelfNSByLayer sums self time over the spans of each layer.
	SelfNSByLayer map[string]int64 `json:"self_ns_by_layer"`
	Spans         []span           `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	doc := traceFile{Workload: workload, Seed: seed, SelfNSByLayer: map[string]int64{}, Spans: t.spans}
	for i, self := range selfTimes(t.spans) {
		doc.SelfNSByLayer[t.spans[i].Layer] += self
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
