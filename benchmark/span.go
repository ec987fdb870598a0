package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. The benchmark records
// spans around its own calls into each package; nothing inside the
// program is instrumented. Parent is the index of the span that caused
// this one (-1 for a root); spans of one operation share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory and writes them out once, when the
// traced child ends. The mutex is for the HTTP workload, where client
// goroutines and server handlers record concurrently.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// add records a finished span and returns its index.
func (r *recorder) add(name string, start, end int64, parent int, op int64) int {
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op})
	i := len(r.spans) - 1
	r.mu.Unlock()
	return i
}

// open starts a root span now and returns its index; its operation id is
// index+1, so 0 can mean "untraced". finish ends it.
func (r *recorder) open(name string) int {
	r.mu.Lock()
	i := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: r.now(), Parent: -1, Op: int64(i + 1)})
	r.mu.Unlock()
	return i
}

func (r *recorder) finish(i int) {
	end := r.now()
	r.mu.Lock()
	r.spans[i].End = end
	r.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover (overlapping children are merged, a
// child is clipped to its parent).
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		covered := int64(0)
		cs := kids[i]
		// Children are recorded in start order per parent in every caller
		// here; insertion-sort keeps the function correct regardless.
		for a := 1; a < len(cs); a++ {
			for b := a; b > 0 && spans[cs[b]].Start < spans[cs[b-1]].Start; b-- {
				cs[b], cs[b-1] = cs[b-1], cs[b]
			}
		}
		edge := s.Start
		for _, c := range cs {
			lo, hi := spans[c].Start, spans[c].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// writeSpans dumps the recorded spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
