package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	// root [0,100): children a [10,40) and b [30,60) overlap (parallel
	// workers), c [90,120) runs past the root's end; a has a child
	// [15,25) and a grandchild under it.
	spans := []Span{
		{Name: "root", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 40 * ms},
		{Name: "b", Parent: 0, Start: 30 * ms, End: 60 * ms},
		{Name: "c", Parent: 0, Start: 90 * ms, End: 120 * ms},
		{Name: "a1", Parent: 1, Start: 15 * ms, End: 25 * ms},
		{Name: "a11", Parent: 4, Start: 16 * ms, End: 18 * ms},
		{Name: "open", Parent: 0, Start: 70 * ms, End: -1},
	}
	want := []time.Duration{
		100*ms - 50*ms - 10*ms, // children cover [10,60) and [90,100); the open span covers nothing
		30*ms - 10*ms,
		30 * ms,
		30 * ms,
		10*ms - 2*ms,
		2 * ms,
		0,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	tot := totalsByName(append(spans, Span{Name: "a", Parent: 0, Start: 0, End: 5 * ms}))
	near := func(x, y float64) bool { return math.Abs(x-y) < 1e-12 }
	if a := tot["a"]; a.Count != 2 || !near(a.SelfS, 0.025) || !near(a.TotalS, 0.035) {
		t.Errorf("totals for a = %+v", a)
	}
	if _, ok := tot["open"]; ok {
		t.Error("an open span was folded into the totals")
	}
}

func TestTracerRecordsTree(t *testing.T) {
	tr := newTracer()
	root := tr.root("pass")
	child := root.child("layer")
	srv := tr.childOf(child.idx, "handler")
	srv.end()
	child.end()
	root.end()
	other := tr.root("pass")
	other.end()
	spans := tr.snapshot()
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	if spans[1].Parent != 0 || spans[2].Parent != 1 || spans[1].Trace != spans[0].Trace || spans[2].Trace != spans[0].Trace {
		t.Errorf("tree links wrong: %+v", spans)
	}
	if spans[3].Trace == spans[0].Trace {
		t.Error("two roots share a trace id")
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %s left open", s.Name)
		}
	}
	tot, passes := passTotals(spans, "pass")
	if passes != 2 || tot["handler"].Count != 1 {
		t.Errorf("passTotals = %v, %d passes", tot, passes)
	}
	var nilTracer *tracer
	nilTracer.root("x").child("y").end()
	if nilTracer.snapshot() != nil {
		t.Error("nil tracer recorded spans")
	}
}
