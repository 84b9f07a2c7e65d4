package main

import "testing"

func TestSelfTimeNestedSpans(t *testing.T) {
	// root [0,100) with children [10,30), [20,50) (overlapping) and
	// [90,120) (runs past the root); child 2 has a grandchild [25,35).
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
	}
	got := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (40 + 10), // union [10,50) and [90,100)
		2: 20,
		3: 30 - 10,
		4: 30,
		5: 10,
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self = %d, want %d", id, got[id], w)
		}
	}
	total, self, count := byName(spans)
	if total["root"] != 100e-6 || self["root"] != 50e-6 || count["b"] != 1 {
		t.Errorf("byName: total %v self %v count %v", total, self, count)
	}
}

func TestTracerNilAndClosed(t *testing.T) {
	var off *tracer
	if id := off.begin("x", 0, "n"); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	off.end(0)

	tr := newTracer()
	root := tr.begin("req-1", 0, "root")
	kid := tr.begin("req-1", root, "kid")
	tr.end(kid)
	tr.begin("req-1", root, "unfinished")
	tr.end(root)
	got := tr.closed()
	if len(got) != 2 {
		t.Fatalf("closed spans = %d, want 2", len(got))
	}
	if got[0].Parent != 0 || got[1].Parent != root || got[0].Trace != "req-1" {
		t.Fatalf("span links wrong: %+v", got)
	}
}

func TestInterleaveCancelsDrift(t *testing.T) {
	// Tracing adds 2 to every slice while the host drifts up by 1 per
	// slice; the pairs' order makes the drift cancel in the median.
	tr := newTracer()
	var order []bool
	got, err := interleave(tr, func(i int, traced bool) (float64, error) {
		if traced == tr.paused.Load() {
			t.Fatalf("slice %d: traced=%v but tracer paused=%v", i, traced, tr.paused.Load())
		}
		order = append(order, traced)
		v := 10 + float64(i)
		if traced {
			v += 2
		}
		return v, nil
	})
	if err != nil || got != 2 {
		t.Fatalf("overhead = %v (err %v), want 2", got, err)
	}
	want := []bool{false, true, true, false, false, true, true, false}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("slice order = %v, want %v", order, want)
		}
	}
	if !tr.on() {
		t.Fatal("tracer left paused")
	}
}
