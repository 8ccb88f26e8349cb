package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's
// own code. Spans of one operation share a Trace id; Parent is the id
// of the span that caused this one (0 for a root).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  int64  `json:"trace"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRef names an open span so children can attach to it.
type spanRef struct{ id, trace int64 }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent; a zero parent starts a new trace.
func (t *tracer) begin(parent spanRef, layer, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	tr := parent.trace
	if tr == 0 {
		tr = id
	}
	t.spans = append(t.spans, Span{ID: id, Parent: parent.id, Trace: tr, Layer: layer, Name: name, Start: now})
	return spanRef{id, tr}
}

// end closes a span opened by begin.
func (t *tracer) end(s spanRef) {
	if t == nil || s.id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[s.id-1].End = now
	t.mu.Unlock()
}

// add records an already-timed span, for calls whose measurement must
// not include the tracer's own allocations.
func (t *tracer) add(parent spanRef, layer, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := t.begin(parent, layer, name)
	t.mu.Lock()
	t.spans[s.id-1].Start = start.Sub(t.epoch).Nanoseconds()
	t.spans[s.id-1].End = end.Sub(t.epoch).Nanoseconds()
	t.mu.Unlock()
}

// write stores every span as a JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children that overlap each
// other (concurrent calls) are counted once; child time outside the
// parent's interval is ignored.
func selfTimes(spans []Span) map[int64]int64 {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(kids[s.ID], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// layerSelfMS sums self time per layer, in milliseconds.
func layerSelfMS(spans []Span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Layer] += float64(self[s.ID]) / 1e6
	}
	return out
}
