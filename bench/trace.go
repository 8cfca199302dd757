package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// tracer records spans in memory around the benchmark's calls into the
// layers. It is safe for concurrent use: pm_sweep jobs open spans from the
// sweep worker goroutines.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one recorded span. Times are nanoseconds since the tracer
// started; Parent is -1 for an iteration's root span.
type spanRec struct {
	Name   string `json:"name"`
	Iter   int    `json:"iter"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int32, iter int) int32 {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, spanRec{Name: name, Iter: iter, ID: id, Parent: parent, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// spanRef is an open span; the zero value (no tracer) ignores end, so the
// untraced path costs one nil check per call site.
type spanRef struct {
	tr *tracer
	id int32
}

func (r spanRef) end() {
	if r.tr != nil {
		r.tr.end(r.id)
	}
}

// finish fills every span's self time: its duration minus the part of its
// interval that its children cover. Children may overlap (two sweep workers
// under one sweep.Run span), so coverage is the length of their union.
func (t *tracer) finish() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int32][]int32)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		var iv [][2]int64
		for _, k := range kids[s.ID] {
			c := t.spans[k]
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		s.Self = s.End - s.Start - unionLen(iv)
	}
	return t.spans
}

func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// spanAgg is the per-name aggregate of finished spans.
type spanAgg struct {
	Count int
	Total int64 // summed durations, ns
	Self  int64 // summed self times, ns
}

func aggregate(spans []spanRec) map[string]spanAgg {
	out := make(map[string]spanAgg)
	for _, s := range spans {
		a := out[s.Name]
		a.Count++
		a.Total += s.End - s.Start
		a.Self += s.Self
		out[s.Name] = a
	}
	return out
}

func writeSpans(w io.Writer, spans []spanRec) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}
