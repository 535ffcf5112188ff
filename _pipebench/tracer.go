package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call from the benchmark into a layer's public
// function. Spans of one pass (one evaluate pass, one fleet scan, one
// serve tick, one HTTP POST) share a Trace id; Parent is the index of the
// enclosing span, -1 for a pass's root.
type Span struct {
	Name   string        `json:"name"`
	Trace  int64         `json:"trace"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the timed code paths are the
// same with tracing on and off.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
	traces int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// spanRef is an open span; the zero value (from a nil tracer) is inert.
type spanRef struct {
	t     *tracer
	idx   int
	trace int64
}

// root opens the first span of a new trace.
func (t *tracer) root(name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces++
	return t.open(name, t.traces, -1)
}

func (t *tracer) open(name string, trace int64, parent int) spanRef {
	t.spans = append(t.spans, Span{Name: name, Trace: trace, Parent: parent, Start: time.Since(t.origin), End: -1})
	return spanRef{t: t, idx: len(t.spans) - 1, trace: trace}
}

// child opens a span caused by s.
func (s spanRef) child(name string) spanRef {
	if s.t == nil {
		return spanRef{}
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.t.open(name, s.trace, s.idx)
}

// end closes the span.
func (s spanRef) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.origin)
	s.t.mu.Lock()
	s.t.spans[s.idx].End = now
	s.t.mu.Unlock()
}

// snapshot returns a copy of the closed spans' list (open spans keep
// End = -1).
func (t *tracer) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover. Children that overlap each other (parallel
// workers) are merged first, so concurrent children are not subtracted
// twice, and child time outside the parent's interval is not subtracted
// at all.
func selfTimes(spans []Span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			cs := spans[c]
			lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered time.Duration
		var curLo, curHi time.Duration = -1, -1
		for _, v := range ivs {
			if v.lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = v.lo, v.hi
			} else if v.hi > curHi {
				curHi = v.hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanTotal is one span name's aggregate over a run.
type spanTotal struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// totalsByName folds spans into per-name counts, total and self seconds.
func totalsByName(spans []Span) map[string]spanTotal {
	self := selfTimes(spans)
	out := map[string]spanTotal{}
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		t := out[s.Name]
		t.Count++
		t.TotalS += (s.End - s.Start).Seconds()
		t.SelfS += self[i].Seconds()
		out[s.Name] = t
	}
	return out
}

// writeSpans writes every span plus the per-name totals and the run's
// context to path as one JSON document.
func writeSpans(path string, spans []Span, context map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	doc := map[string]any{"context": context, "totals": totalsByName(spans), "spans": spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// passTotals folds only the spans whose trace root is named rootName and
// returns the per-name totals and the number of such roots (passes).
func passTotals(spans []Span, rootName string) (map[string]spanTotal, int) {
	keep := make([]bool, len(spans))
	passes := 0
	rootOf := make([]int, len(spans))
	for i, s := range spans {
		if s.Parent < 0 {
			rootOf[i] = i
			if s.Name == rootName && s.End >= s.Start {
				passes++
			}
		} else {
			rootOf[i] = rootOf[s.Parent]
		}
		keep[i] = spans[rootOf[i]].Name == rootName
	}
	// Re-index the kept spans so parent links stay valid.
	newIdx := make([]int, len(spans))
	var kept []Span
	for i, s := range spans {
		if !keep[i] {
			continue
		}
		if s.Parent >= 0 {
			s.Parent = newIdx[s.Parent]
		}
		newIdx[i] = len(kept)
		kept = append(kept, s)
	}
	return totalsByName(kept), passes
}

// childOf opens a span under the span at index parent, for callers that
// only hold the parent's index (a server handler reading it from a
// request header).
func (t *tracer) childOf(parent int, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent < 0 || parent >= len(t.spans) {
		return spanRef{}
	}
	return t.open(name, t.spans[parent].Trace, parent)
}
