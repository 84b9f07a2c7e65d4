package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request or job
// share a trace ID; parent is the ID of the span that caused this one (0
// for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil or paused tracer
// records nothing, so untraced code pays one check per boundary.
type tracer struct {
	epoch  time.Time
	paused atomic.Bool
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// on reports whether t records spans.
func (t *tracer) on() bool { return t != nil && !t.paused.Load() }

// begin opens a span and returns its ID (0 when t records nothing).
func (t *tracer) begin(trace string, parent int, name string) int {
	if !t.on() {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(trace string, parent int, name string, fn func()) time.Duration {
	id := t.begin(trace, parent, name)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// overheadPairs is how many untraced/traced slice pairs a traced server
// run alternates, in the order U T, T U, U T, T U, so a steady drift of
// the host over the run adds to half the pairs' differences and takes
// from the other half.
const overheadPairs = 4

// interleave runs 2*overheadPairs slices against one server, with t
// paused in the untraced ones, and returns the tracing overhead: the
// median over pairs of the traced slice's headline value minus the
// untraced one's. slice gets its index and whether t records.
func interleave(t *tracer, slice func(i int, traced bool) (float64, error)) (float64, error) {
	defer t.paused.Store(false)
	var diffs []float64
	var v [2]float64
	for i := 0; i < 2*overheadPairs; i++ {
		traced := (i%2 == 1) != (i/2%2 == 1)
		t.paused.Store(!traced)
		x, err := slice(i, traced)
		if err != nil {
			return 0, err
		}
		if traced {
			v[1] = x
		} else {
			v[0] = x
		}
		if i%2 == 1 {
			diffs = append(diffs, v[1]-v[0])
		}
	}
	return medianOf(diffs), nil
}

// closed returns a copy of every finished span.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores the finished spans as JSON at path.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.closed())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once,
// and a child running past its parent counts only inside the parent).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to
// the parent's interval.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// byName sums span durations and self times per span name, in ms.
func byName(spans []span) (total, self map[string]float64, count map[string]int) {
	st := selfTimes(spans)
	total, self, count = map[string]float64{}, map[string]float64{}, map[string]int{}
	for _, s := range spans {
		total[s.Name] += float64(s.dur()) / 1e6
		self[s.Name] += float64(st[s.ID]) / 1e6
		count[s.Name]++
	}
	return total, self, count
}
