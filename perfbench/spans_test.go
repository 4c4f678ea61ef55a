package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := NewTracer()
	t0 := tr.epoch
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr.Open("sim.round", "round-0", at(0))
	tr.Record("sched.assign", at(1), at(4))
	tr.Record("trace.next", at(5), at(6))
	tr.Close(at(10))
	tr.RecordRoot("http.submit", "req-0", at(2), at(3))

	spans := tr.Spans()
	if len(spans) != 4 || spans[1].Parent != spans[0].ID || spans[3].Parent != 0 || spans[1].Req != "round-0" {
		t.Fatalf("unexpected nesting: %+v", spans)
	}
	agg := Aggregate(spans)
	if got := agg["sim.round"].Self; math.Abs(got-6) > 1e-9 {
		t.Errorf("round self time %v, want 6", got)
	}
	if got := agg["sched.assign"].Total; math.Abs(got-3) > 1e-9 {
		t.Errorf("assign total %v, want 3", got)
	}
	self := SelfByLayer(spans)
	if math.Abs(self["sim"]-6) > 1e-9 || math.Abs(self["http"]-1) > 1e-9 {
		t.Errorf("self by layer %v", self)
	}
}

func TestDiscardDropsUnstartedScope(t *testing.T) {
	tr := NewTracer()
	tr.Open("sim.round", "round-0", time.Now())
	tr.Discard()
	tr.Record("sched.assign", time.Now(), time.Now())
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Parent != 0 {
		t.Fatalf("spans after discard: %+v", spans)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	tr.Open("sim.round", "r", time.Now())
	tr.Record("sched.assign", time.Now(), time.Now())
	tr.Close(time.Now())
	if tr.Spans() != nil {
		t.Fatal("nil tracer kept spans")
	}
}

func TestWriteSpans(t *testing.T) {
	tr := NewTracer()
	tr.Record("trace.next", time.Now(), time.Now())
	tr.Record("trace.next", time.Now(), time.Now())
	path := filepath.Join(t.TempDir(), "out", "spans.jsonl")
	if err := WriteSpans(path, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	for sc := bufio.NewScanner(f); sc.Scan(); n++ {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil || s.Name != "trace.next" {
			t.Fatalf("line %d: %v %+v", n, err, s)
		}
	}
	if n != 2 {
		t.Fatalf("%d lines, want 2", n)
	}
}
