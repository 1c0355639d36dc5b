package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// spanID identifies one span; 0 means "no parent".
type spanID uint64

// span is one timed call at a layer boundary. Spans of one session,
// campaign drain or tuning run share Group.
type span struct {
	ID     spanID        `json:"id"`
	Parent spanID        `json:"parent,omitempty"`
	Group  string        `json:"group"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`

	// Attrs carries counts measured inside the span, and the summed time
	// of work that is not one contiguous interval (the strategy's
	// per-candidate reduction inside a scan, the source's generation).
	Attrs map[string]int64 `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	next  spanID
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the tracer clock: time since the epoch.
func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// open allocates a span ID and returns it with the start time, so
// children can name their parent before the span is recorded.
func (t *tracer) open() (spanID, time.Duration) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return id, t.now()
}

// close records a span opened with open, ending now.
func (t *tracer) close(id, parent spanID, group, name string, start time.Duration, attrs map[string]int64) {
	if t == nil {
		return
	}
	t.record(span{ID: id, Parent: parent, Group: group, Name: name, Start: start, End: t.now(), Attrs: attrs})
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerSummary aggregates the spans of one name.
type layerSummary struct {
	Name  string        `json:"name"`
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
	Self  time.Duration `json:"self_ns"`
}

// selfTimes computes, for every span, its duration minus the part of its
// interval covered by its children (the union of the child intervals,
// clipped to the parent, so overlapping children count once).
func selfTimes(spans []span) map[spanID]time.Duration {
	kids := map[spanID][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[spanID]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals inside
// the parent's interval.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	first := true
	var start time.Duration
	for _, v := range ivs {
		switch {
		case first:
			start, end, first = v.a, v.b, false
		case v.a > end:
			total += end - start
			start, end = v.a, v.b
		case v.b > end:
			end = v.b
		}
	}
	if !first {
		total += end - start
	}
	return total
}

// summarize aggregates spans by name, sorted by name.
func summarize(spans []span) []layerSummary {
	self := selfTimes(spans)
	by := map[string]*layerSummary{}
	for _, s := range spans {
		l := by[s.Name]
		if l == nil {
			l = &layerSummary{Name: s.Name}
			by[s.Name] = l
		}
		l.Count++
		l.Total += s.dur()
		l.Self += self[s.ID]
	}
	out := make([]layerSummary, 0, len(by))
	for _, l := range by {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// printSummary writes the per-name span table.
func printSummary(w io.Writer, sums []layerSummary) {
	fmt.Fprintf(w, "  %-26s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "mean_ms")
	for _, l := range sums {
		fmt.Fprintf(w, "  %-26s %8d %12.3f %12.3f %12.4f\n", l.Name, l.Count,
			float64(l.Total)/1e6, float64(l.Self)/1e6, float64(l.Total)/1e6/float64(l.Count))
	}
}

// writeTrace stores the spans and their summary as JSON at path.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Summary []layerSummary `json:"summary"`
		Spans   []span         `json:"spans"`
	}{summarize(spans), spans}); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

// record stores a fully built span.
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}
