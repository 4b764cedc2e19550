package main

import (
	"math"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Start: 0, End: 100, Name: "sweep.op"},
		// Overlapping children (parallel workers) count once: 10..50.
		{ID: 2, Parent: 1, Start: 10, End: 30, Name: "kernel.run"},
		{ID: 3, Parent: 1, Start: 20, End: 50, Name: "kernel.run"},
		// A child running past its parent counts only inside it: 90..100.
		{ID: 4, Parent: 1, Start: 90, End: 120, Name: "sim.run"},
		// A grandchild reduces only its own parent.
		{ID: 5, Parent: 3, Start: 25, End: 35, Name: "core.algo"},
		// A span whose parent was never recorded keeps its whole duration.
		{ID: 6, Parent: 99, Start: 0, End: 7, Name: "campaign.lease"},
	}
	want := []int64{50, 20, 20, 30, 10, 7}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time %d, want %d", spans[i].ID, got[i], want[i])
		}
	}
	layers := LayerSelf(spans, got)
	for l, v := range map[string]int64{"sweep": 50, "kernel": 40, "sim": 30, "core": 10, "campaign": 7} {
		if layers[l] != v {
			t.Errorf("layer %s self time %d, want %d", l, layers[l], v)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {90, 4.6}, {100, 5}, {25, 2},
	} {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("Percentile sorted its input in place")
	}
	if Percentile(nil, 50) != 0 || Median([]float64{7}) != 7 || Median([]float64{1, 2}) != 1.5 {
		t.Error("edge cases wrong")
	}
}

func TestRecorderIDs(t *testing.T) {
	rec := NewRecorder()
	a, b := rec.NewBuf(), rec.NewBuf()
	parent := a.NewID()
	child := b.Record("kernel.run", parent, parent, 1, 2)
	a.Put(parent, "sweep.trial", parent, 0, 0, 3)
	unused := a.NewID()
	spans := rec.Spans()
	if len(spans) != 2 || parent == child || unused == parent {
		t.Fatalf("spans %+v", spans)
	}
	if spans[0].ID != parent || spans[1].Parent != parent || a.Start(parent) != 0 {
		t.Errorf("spans %+v", spans)
	}
	b.Reparent(child, 42, 0)
	if s := rec.Spans()[1]; s.Trace != 42 || s.Parent != 0 {
		t.Errorf("reparented span %+v", s)
	}
}
