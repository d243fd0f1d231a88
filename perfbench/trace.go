package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"dcsr/internal/obs"
)

// span is one recorded interval: a call the benchmark made into a layer,
// or a span the program emitted into an *obs.Obs that the benchmark
// copied under the call that produced it. Spans of one operation share
// a trace ID; Parent is 0 on the operation's root.
type span struct {
	ID, Parent, Trace uint64
	Name              string
	Start, End        time.Time
}

// tracer keeps every span of a traced run in memory until the run ends.
// A nil *tracer records nothing, so untraced phases pass nil.
type tracer struct {
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{} }

func (t *tracer) newID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// active is an open span. Every method is a no-op on nil, which is what
// a nil tracer hands out.
type active struct {
	t                 *tracer
	id, parent, trace uint64
	name              string
	start             time.Time
}

// root opens the root span of a new operation with a fresh trace ID.
func (t *tracer) root(name string) *active {
	if t == nil {
		return nil
	}
	id := t.newID()
	return &active{t: t, id: id, trace: id, name: name, start: time.Now()}
}

// child opens a span caused by a.
func (a *active) child(name string) *active {
	if a == nil {
		return nil
	}
	return &active{t: a.t, id: a.t.newID(), parent: a.id, trace: a.trace, name: name, start: time.Now()}
}

// end closes the span and records it.
func (a *active) end() {
	if a == nil {
		return
	}
	a.t.record(span{ID: a.id, Parent: a.parent, Trace: a.trace, Name: a.name, Start: a.start, End: time.Now()})
}

// adopt copies a span tree the program exported from its own tracer
// (obs.Span.Export) under a, keeping names and timing. A span with an
// "op" attribute is named name.op.
func (a *active) adopt(sj obs.SpanJSON) {
	if a == nil {
		return
	}
	name := sj.Name
	if op, ok := sj.Attrs["op"].(string); ok {
		name += "." + op // a client's wire attempt, named by its request
	}
	c := &active{t: a.t, id: a.t.newID(), parent: a.id, trace: a.trace, name: name, start: sj.Start}
	for _, ch := range sj.Children {
		c.adopt(ch)
	}
	end := sj.Start.Add(time.Duration(sj.DurationMS * float64(time.Millisecond)))
	a.t.record(span{ID: c.id, Parent: c.parent, Trace: c.trace, Name: c.name, Start: c.start, End: end})
}

// selfTimes maps each span ID to the span's duration minus the part of
// its interval that the union of its children's intervals covers.
// Overlapping children (parallel jobs) are therefore not subtracted
// twice, and self time is never negative.
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.End.Sub(s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to [start, end].
func covered(start, end time.Time, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(start) {
			a = start
		}
		if end.Before(b) {
			b = end
		}
		if a.Before(b) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case cur.b.Before(v.a):
			total += cur.b.Sub(cur.a)
			cur = v
		case cur.b.Before(v.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// coverage is the share of the operations' wall time that lies inside
// some layer span: the sum of every non-root span's self time over the
// roots' wall time, which is 1 minus the roots' own self time share.
func coverage(spans []span) float64 {
	self := selfTimes(spans)
	var wall, rootSelf time.Duration
	for _, s := range spans {
		if s.Parent == 0 {
			wall += s.End.Sub(s.Start)
			rootSelf += self[s.ID]
		}
	}
	if wall <= 0 {
		return 0
	}
	return 1 - float64(rootSelf)/float64(wall)
}

// spanRecord is the on-disk form of one span; times are microseconds
// from the first span's start.
type spanRecord struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Trace   uint64 `json:"trace"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// writeSpans writes the header and every span, one JSON object per
// line, to path.
func writeSpans(path string, h header, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	werr := enc.Encode(h)
	var epoch time.Time
	for i, s := range spans {
		if i == 0 || s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	for _, s := range spans {
		if werr != nil {
			break
		}
		werr = enc.Encode(spanRecord{
			Name: s.Name, ID: s.ID, Parent: s.Parent, Trace: s.Trace,
			StartUS: s.Start.Sub(epoch).Microseconds(), EndUS: s.End.Sub(epoch).Microseconds(),
		})
	}
	if werr == nil {
		werr = w.Flush()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("writing spans to %s: %w", path, werr)
	}
	return nil
}
