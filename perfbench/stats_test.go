package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- { // descending: percentile must not rely on order
		s = append(s, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{
		{0.01, 1}, {0.50, 50}, {0.90, 90}, {0.99, 99}, {1, 100},
	} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if s[0] != 100 {
		t.Errorf("percentile reordered its input")
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Errorf("percentile of no samples should be NaN")
	}
}

func TestSampleCountsBeyondPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{
		{100, 0.99, 1}, {1000, 0.99, 10}, {999, 0.99, 9}, {10, 0.5, 5}, {0, 0.99, 0}, {1, 0.99, 0},
	} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio over zero = %v", got)
	}
}

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: at(0), End: at(10)},
		// Two parallel jobs overlapping on [3,4], and one running past
		// the parent's end: covered is [1,6] ∪ [8,10] = 7ms.
		{ID: 2, Parent: 1, Name: "job", Start: at(1), End: at(4)},
		{ID: 3, Parent: 1, Name: "job", Start: at(3), End: at(6)},
		{ID: 4, Parent: 1, Name: "late", Start: at(8), End: at(12)},
		// A grandchild counts against its own parent only.
		{ID: 5, Parent: 3, Name: "inner", Start: at(4), End: at(5)},
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{1: 3 * time.Millisecond, 2: 3 * time.Millisecond, 3: 2 * time.Millisecond, 4: 4 * time.Millisecond, 5: time.Millisecond}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	if got := coverage(spans); math.Abs(got-0.7) > 1e-9 {
		t.Errorf("coverage = %v, want 0.7", got)
	}
}

func TestTracerRecordsParentsAndTraceIDs(t *testing.T) {
	tr := newTracer()
	r := tr.root("op")
	c := r.child("layer")
	c.end()
	r.end()
	var nilTracer *tracer
	nilTracer.root("off").child("off").end() // a nil tracer records nothing
	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	child, root := spans[0], spans[1]
	if child.Parent != root.ID || root.Parent != 0 || child.Trace != root.Trace {
		t.Errorf("child %+v not linked to root %+v", child, root)
	}
	if child.Start.Before(root.Start) || child.End.After(root.End) {
		t.Errorf("child interval outside its root")
	}
}
