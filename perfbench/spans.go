package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from outside the layer.
type Span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = root
	Name   string  `json:"name"`   // "<layer>.<operation>", e.g. "sched.assign"
	Req    string  `json:"req"`    // request the span belongs to, e.g. "round-17"
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// Dur returns the span's duration in milliseconds.
func (s Span) Dur() float64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced passes share the traced passes' code. Calls into a
// layer made while a scope is open become children of the scope's span;
// the workloads open one scope per round, step or replay, so the nesting
// is known without inspecting the callee.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
	scope int
	req   string
}

// NewTracer starts an empty trace whose timestamps count from now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

func (t *Tracer) ms(at time.Time) float64 { return float64(at.Sub(t.epoch).Nanoseconds()) / 1e6 }

// Record stores a finished span under the open scope and returns its id
// (0 on a nil tracer).
func (t *Tracer) Record(name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recordLocked(Span{Parent: t.scope, Name: name, Req: t.req, Start: t.ms(start), End: t.ms(end)})
}

// RecordRoot stores a finished span outside any scope: a request served
// on another goroutine than the one driving the open scope.
func (t *Tracer) RecordRoot(name, req string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recordLocked(Span{Name: name, Req: req, Start: t.ms(start), End: t.ms(end)})
}

func (t *Tracer) recordLocked(s Span) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// Open starts a scope span: layer calls recorded until Close become its
// children. Scopes do not nest.
func (t *Tracer) Open(name, req string, start time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.scope = t.recordLocked(Span{Name: name, Req: req, Start: t.ms(start), End: t.ms(start)})
	t.req = req
}

// Close ends the open scope at end.
func (t *Tracer) Close(end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.scope > 0 {
		t.spans[t.scope-1].End = t.ms(end)
	}
	t.scope, t.req = 0, ""
}

// Discard drops an open scope that never ran (a clock wait that ended
// the loop instead of starting a round).
func (t *Tracer) Discard() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.scope > 0 && t.scope == len(t.spans) {
		t.spans = t.spans[:len(t.spans)-1]
	}
	t.scope, t.req = 0, ""
}

// Spans returns a copy of every recorded span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SpanStats aggregates spans by name.
type SpanStats struct {
	Count int
	Total float64 // ms, summed durations
	Self  float64 // ms, durations minus the time their children cover
	Dist  Dist    // per-span durations
}

// SpanTable maps span names to their aggregates.
type SpanTable map[string]*SpanStats

// get returns the aggregate of name, empty if no such span was recorded.
func (t SpanTable) get(name string) *SpanStats {
	if st := t[name]; st != nil {
		return st
	}
	return &SpanStats{}
}

// Aggregate sums durations and self times per span name. A span's self
// time is its duration minus its children's; children of one scope never
// overlap, because every scope is driven from one goroutine.
func Aggregate(spans []Span) SpanTable {
	child := make([]float64, len(spans)+1)
	for _, s := range spans {
		if s.Parent > 0 {
			child[s.Parent] += s.Dur()
		}
	}
	out := map[string]*SpanStats{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &SpanStats{}
			out[s.Name] = st
		}
		st.Count++
		st.Total += s.Dur()
		st.Self += max(0, s.Dur()-child[s.ID])
		st.Dist.Add(s.Dur())
	}
	return out
}

// SelfByLayer sums self time per layer prefix.
func SelfByLayer(spans []Span) map[string]float64 {
	out := map[string]float64{}
	for name, st := range Aggregate(spans) {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += st.Self
	}
	return out
}

// WriteSpans writes spans as JSON lines to path, creating its directory.
func WriteSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
