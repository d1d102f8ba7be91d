package main

import "time"

// span is one traced interval at a layer boundary, recorded by the
// benchmark around its own calls into the library. Spans of one sweep (or
// one served job) share a trace id; Parent 0 marks the root.
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; the report writes them out at the end.
// Not safe for concurrent use.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, trace, parent int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Trace: trace, ID: id, Parent: parent,
		Start: time.Since(t.t0).Nanoseconds()})
	return id
}

// end closes the span with the given id.
func (t *tracer) end(id int) {
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// add records an already measured span and returns its id.
func (t *tracer) add(name string, trace, parent int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Trace: trace, ID: id, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// selfTimes returns each span's self time: its duration minus the part its
// direct children cover (children never overlap within one trace here).
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent > 0 {
			self[s.Parent-1] -= s.dur()
		}
	}
	return self
}

// rollup is the reconciliation of one kind of root span (a sweep or a job):
// per-call self-time samples for every child span name, and per root the
// wall time, the children's sum and the root's own residual.
type rollup struct {
	calls                      map[string][]float64 // child name -> self ms per call
	perRoot                    map[string][]float64 // child name -> summed self ms per root
	wall, layers, unattributed []float64            // ms per root
}

// reconcile rolls up the roots named root and their direct children.
// Σ children + unattributed = wall holds per root by construction.
func (t *tracer) reconcile(root string) rollup {
	self := t.selfTimes()
	r := rollup{calls: map[string][]float64{}, perRoot: map[string][]float64{}}
	children := map[int][]int{}
	for i, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range t.spans {
		if s.Name != root {
			continue
		}
		sum := map[string]float64{}
		var layers float64
		for _, c := range children[s.ID] {
			// A child's whole duration belongs to the root's layers; its
			// self time is what the child's own layer spent.
			d := ms(t.spans[c].dur())
			layers += d
			sum[t.spans[c].Name] += ms(self[c])
			r.calls[t.spans[c].Name] = append(r.calls[t.spans[c].Name], ms(self[c]))
		}
		for name, v := range sum {
			r.perRoot[name] = append(r.perRoot[name], v)
		}
		r.wall = append(r.wall, ms(s.dur()))
		r.layers = append(r.layers, layers)
		r.unattributed = append(r.unattributed, ms(self[i]))
	}
	return r
}
