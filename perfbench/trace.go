package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The benchmark traces itself, not the program: every span brackets one
// call from the benchmark's own code into a layer's public function. Spans
// are kept in memory and written out once, when the run ends, so recording
// costs a clock read and a slice append. A nil *recorder records nothing;
// the untraced passes run with one.

// span is one recorded call into a layer.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder collects spans. Safe for concurrent use.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// active is an open span; end closes it.
type active struct {
	r      *recorder
	id     int64
	parent int64
	layer  string
	name   string
	start  int64
}

// start opens a span under parent (0 for a root). On a nil recorder it
// returns an inert span.
func (r *recorder) start(parent int64, layer, name string) active {
	if r == nil {
		return active{}
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return active{r: r, id: id, parent: parent, layer: layer, name: name, start: int64(time.Since(r.t0))}
}

// end closes the span and returns its duration (0 when inert).
func (a active) end() time.Duration {
	if a.r == nil {
		return 0
	}
	now := int64(time.Since(a.r.t0))
	a.r.mu.Lock()
	a.r.spans = append(a.r.spans, span{ID: a.id, Parent: a.parent, Layer: a.layer, Name: a.name, Start: a.start, End: now})
	a.r.mu.Unlock()
	return time.Duration(now - a.start)
}

// snapshot returns the spans recorded so far, ordered by start time.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children counted
// once), keyed by span ID.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// writeJSON writes every recorded span, with its self time, to path.
func (r *recorder) writeJSON(path string) error {
	spans := r.snapshot()
	self := selfTimes(spans)
	type row struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{span: s, SelfNS: int64(self[s.ID])}
	}
	data, err := json.Marshal(map[string]any{"schema": "perfbench/spans/v1", "spans": rows})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
