package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one recorded call into a layer. Parent is 0 for a request
// span; Name is "<layer>.<operation>", and the layer is the module under
// internal/ the call enters ("bench" for the harness's own request
// span). N counts the calls a span covers when one span times a loop of
// calls too short to time singly.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int32  `json:"n,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

func (s *span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory; write dumps them when the run ends. It is
// safe for concurrent use: server goroutines record spans too.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (0 for a request span).
func (t *tracer) begin(parent int32, name, attr string) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Attr: attr, Start: now, N: 1})
	return id
}

// end closes the span; n is the number of calls it timed.
func (t *tracer) end(id int32, n int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].N = int32(n)
}

// do times f as one span under parent.
func (t *tracer) do(parent int32, name, attr string, f func()) time.Duration {
	id := t.begin(parent, name, attr)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id, 1)
	return d
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanIndex answers the per-layer questions over a finished trace.
type spanIndex struct {
	spans    []span
	children map[int32][]int32
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, children: make(map[int32][]int32)}
	for _, s := range spans {
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s.ID)
		}
	}
	return ix
}

func (ix *spanIndex) get(id int32) *span { return &ix.spans[id-1] }

// root returns the request span a span descends from.
func (ix *spanIndex) root(id int32) *span {
	s := ix.get(id)
	for s.Parent != 0 {
		s = ix.get(s.Parent)
	}
	return s
}

// self returns the span's duration minus the part of its interval that
// its children cover. Children may run concurrently (server goroutines),
// so their intervals are merged before subtracting.
func (ix *spanIndex) self(id int32) time.Duration {
	s := ix.get(id)
	kids := ix.children[id]
	if len(kids) == 0 {
		return s.dur()
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := ix.get(k)
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	curA, curB = -1, -1
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		covered += curB - curA
	}
	return s.dur() - time.Duration(covered)
}

// durations returns the durations, in unit, of the spans named name (and
// attr, when attr is non-empty) under workload requests; perCall divides
// each by the number of calls it timed.
func (ix *spanIndex) durations(name, attr string, unit time.Duration, perCall bool) []float64 {
	var out []float64
	for i := range ix.spans {
		s := &ix.spans[i]
		if s.Name != name || (attr != "" && s.Attr != attr) || s.End == 0 {
			continue
		}
		if ix.root(s.ID).Attr == microAttr {
			continue
		}
		n := s.N
		if n < 1 || !perCall {
			n = 1
		}
		out = append(out, float64(s.dur())/float64(n)/float64(unit))
	}
	return out
}

// selfPerRequest returns each layer's self time summed over the workload
// requests, divided by their number, in milliseconds.
func (ix *spanIndex) selfPerRequest() map[string]float64 {
	totals := make(map[string]time.Duration)
	requests := 0
	for i := range ix.spans {
		s := &ix.spans[i]
		if ix.root(s.ID).Attr == microAttr {
			continue
		}
		if s.Parent == 0 {
			requests++
		}
		totals[s.layer()] += ix.self(s.ID)
	}
	out := make(map[string]float64, len(totals))
	for layer, d := range totals {
		out[layer] = float64(d) / float64(time.Millisecond) / float64(max(requests, 1))
	}
	return out
}
