package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Times are nanoseconds since the tracer's
// epoch; Parent is the id of the span that caused this one (0 = root); Req
// ties the spans of one request together.
type span struct {
	ID     int64            `json:"id"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Parent int64            `json:"parent"`
	Req    int64            `json:"req"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// tracer collects spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, which is how end-to-end runs keep tracing
// off without a branch at every call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(name string, start, end time.Time, parent, req int64, attrs map[string]int64) int64 {
	id := t.reserve()
	t.finish(id, name, start, end, parent, req, attrs)
	return id
}

// reserve hands out an id for a span whose children finish first; close it
// with finish.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1)})
	return int64(len(t.spans))
}

func (t *tracer) finish(id int64, name string, start, end time.Time, parent, req int64, attrs map[string]int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = span{
		ID: id, Name: name, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
		Parent: parent, Req: req, Attrs: attrs,
	}
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func readSpans(r io.Reader) ([]span, error) {
	var spans []span
	dec := json.NewDecoder(r)
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		spans = append(spans, s)
	}
	return spans, nil
}

// selfTimes returns, per span id, the span's duration minus the part of it
// its direct children cover (overlapping children are counted once). A
// child shared by several causes — one engine run answering two handlers —
// has one parent, the oldest; the other handler's wait for that run is its
// own self time, which is what it is: queueing behind someone else's run.
func selfTimes(spans []span) map[int64]int64 {
	type iv struct{ lo, hi int64 }
	children := make(map[int64][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		covered := int64(0)
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		at := s.Start // everything before `at` is already accounted for
		for _, c := range ivs {
			lo, hi := max(c.lo, at), min(c.hi, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerTime is one span name's totals in layers.json.
type layerTime struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func layerTimes(spans []span) map[string]layerTime {
	self := selfTimes(spans)
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.Count++
		lt.TotalMs += float64(s.End-s.Start) / 1e6
		lt.SelfMs += float64(self[s.ID]) / 1e6
		out[s.Name] = lt
	}
	return out
}
