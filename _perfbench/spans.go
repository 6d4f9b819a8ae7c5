package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Parent is the id of the span
// that caused it (0 for none); times are offsets from the recorder's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Self   time.Duration `json:"self_ns"`
}

// recorder keeps spans in memory until the traced run ends. It is safe
// for concurrent use: Scale.Track and checkpoint hooks fire on workers.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(parent int, name string) int {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
}

// do runs fn inside a span.
func (r *recorder) do(parent int, name string, fn func()) {
	id := r.begin(parent, name)
	fn()
	r.end(id)
}

// finish returns the closed spans with their self times: each span's
// duration minus the part of it its children cover.
func (r *recorder) finish() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	var out []span
	for _, s := range r.spans {
		if s.End < 0 {
			continue
		}
		out = append(out, s)
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range out {
		out[i].Self = out[i].End - out[i].Start - covered(out[i], children[out[i].ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	curS, curE := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	return total + curE - curS
}
