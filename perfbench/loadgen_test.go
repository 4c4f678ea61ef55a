package main

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopTimesFromDue checks that a request stuck behind a slow one
// is charged the wait from its due time, and that the schedule keeps
// releasing on time regardless.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const slow = 60 * time.Millisecond
	reqs := []Request{
		{Due: 0, After: -1, Do: func() error { time.Sleep(slow); return nil }},
		{Due: 5 * time.Millisecond, After: -1, Do: func() error { return nil }},
		{Due: 10 * time.Millisecond, After: -1, Do: func() error { return nil }},
	}
	out := StartOpenLoop(reqs, 1, time.Now()).Wait()
	if out[0].Latency < slow {
		t.Fatalf("slow request latency %v < %v", out[0].Latency, slow)
	}
	// With one worker, request 2 waits for request 0 to finish: ~50ms
	// past its due time, none of it the generator's fault.
	if out[2].Latency < slow-10*time.Millisecond-5*time.Millisecond {
		t.Fatalf("queued request latency %v does not count the wait", out[2].Latency)
	}
	for i, o := range out {
		if o.Late < 0 || o.Late > 40*time.Millisecond {
			t.Errorf("request %d released %v late", i, o.Late)
		}
		if o.Acked.Before(o.Sent) {
			t.Errorf("request %d acked before it was sent", i)
		}
	}
}

// TestOpenLoopOrdersDependents checks After: a dependent request starts
// only once its predecessor has completed, even on another worker.
func TestOpenLoopOrdersDependents(t *testing.T) {
	var mu sync.Mutex
	var order []int
	do := func(i int, d time.Duration) func() error {
		return func() error {
			time.Sleep(d)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return nil
		}
	}
	reqs := []Request{
		{Due: 0, After: -1, Do: do(0, 30*time.Millisecond)},
		{Due: time.Millisecond, After: 0, Do: do(1, 0)},
		{Due: 2 * time.Millisecond, After: -1, Do: do(2, 0)},
	}
	l := StartOpenLoop(reqs, 3, time.Now())
	<-l.Done(1)
	out := l.Wait()
	if len(order) != 3 || order[0] == 1 || (order[0] != 0 && order[1] == 1) {
		t.Fatalf("completion order %v: request 1 ran before request 0", order)
	}
	if order[0] != 2 {
		t.Fatalf("completion order %v: independent request 2 waited", order)
	}
	if out[1].Acked.Before(out[0].Acked) {
		t.Fatal("dependent acked before its predecessor")
	}
}

func TestOpenLoopReportsErrors(t *testing.T) {
	boom := errors.New("boom")
	out := StartOpenLoop([]Request{{After: -1, Do: func() error { return boom }}}, 2, time.Now()).Wait()
	if !errors.Is(out[0].Err, boom) {
		t.Fatalf("error %v, want %v", out[0].Err, boom)
	}
}
