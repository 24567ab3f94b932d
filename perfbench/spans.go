package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"skysr/internal/core"
	"skysr/internal/trace"
)

// span is one recorded interval. Layer spans are taken in the
// benchmark's own code around each call into a layer; stage spans are the
// core's search stages (nninit, bounds, leg[i], destleg), copied from the
// span tree the engine synthesizes from a query's Stats. Spans of one
// query share Query.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Query  int64  `json:"query,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Stage  bool   `json:"stage,omitempty"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced phases run.
type recorder struct {
	t0      time.Time
	queries atomic.Int64
	mu      sync.Mutex
	spans   []span
}

// newRecorder returns a recorder, or nil when on is false.
func newRecorder(on bool) *recorder {
	if !on {
		return nil
	}
	return &recorder{t0: time.Now()}
}

// add records a finished layer span and returns its ID (0 on a nil
// recorder).
func (r *recorder) add(layer, name string, query, parent int64, start, end time.Time) int64 {
	return r.put(span{Parent: parent, Query: query, Layer: layer, Name: name}, start, end)
}

func (r *recorder) put(s span, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	s.Start, s.End = start.Sub(r.t0).Nanoseconds(), end.Sub(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = int64(len(r.spans)) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// nextQuery returns a fresh query ID for the spans of one query.
func (r *recorder) nextQuery() int64 { return r.queries.Add(1) }

// on reports whether spans are being recorded.
func (r *recorder) on() bool { return r != nil }

// queryTrace returns a fresh trace for one query whose root the engine
// hangs its search span tree under, or nil on a nil recorder.
func (r *recorder) queryTrace() *trace.Trace {
	if r == nil {
		return nil
	}
	return trace.New("query")
}

// addSearch records the core layer span of one answered query under
// parent: it covers the answer's QueryTime and ends where the engine's
// search span ended (or at end, for rated queries, which return no span
// tree). The engine's search span and its stage children (nninit,
// bounds, leg[i], destleg) are copied beneath it as stage spans; the
// search span starts after the index rows are prepared, so it can be
// shorter than QueryTime.
func (r *recorder) addSearch(tr *trace.Trace, st *core.Stats, query, parent int64, end time.Time) {
	if r == nil || st == nil {
		return
	}
	var kids []*trace.Span
	if tr != nil {
		kids = tr.Root().Children()
	}
	for _, s := range kids {
		end = s.Start().Add(s.Duration())
	}
	id := r.put(span{Parent: parent, Query: query, Layer: "core", Name: "query"}, end.Add(-st.QueryTime), end)
	for _, s := range kids {
		sid := r.put(span{Parent: id, Query: query, Layer: "core", Name: s.Name(), Stage: true}, s.Start(), s.Start().Add(s.Duration()))
		for _, c := range s.Children() {
			r.put(span{Parent: sid, Query: query, Layer: "core", Name: c.Name(), Stage: true}, c.Start(), c.Start().Add(c.Duration()))
		}
	}
}

// selfTimes returns each layer's self time in seconds: the summed
// duration of its layer spans minus the part of each span's interval its
// child layer spans cover. Stage spans only annotate the core span they
// sit in: the engine lays the per-position legs over one another, so
// their intervals say nothing about where the core's time went.
func (r *recorder) selfTimes() map[string]float64 {
	out := map[string]float64{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range r.spans {
		if !s.Stage && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range r.spans {
		if s.Stage {
			continue
		}
		covered := coverage(s, children[s.ID])
		out[s.Layer] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// coverage is the length of the union of the children's intervals,
// clipped to the parent's.
func coverage(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
