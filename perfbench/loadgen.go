package main

import (
	"sync"
	"time"
)

// Request is one entry of an open-loop schedule.
type Request struct {
	Due   time.Duration // when it is due, from the schedule's start
	After int           // index of an earlier request it must follow, or -1
	Do    func() error
}

// Outcome is what happened to one request.
type Outcome struct {
	Sent    time.Time
	Acked   time.Time
	Latency time.Duration // from when it was due to its ack
	Late    time.Duration // how late the generator sent it
	Err     error
}

// OpenLoop runs a schedule open-loop: every request is released at its
// due time whatever the state of earlier ones, and is served by one of
// conns workers, so a stall delays later requests instead of the
// schedule. Latency counts from the due time, so time spent waiting for
// a free worker or for the request named by After counts against the
// system; Late counts only the generator's own delay in releasing it.
type OpenLoop struct {
	reqs []Request
	out  []Outcome
	done []chan struct{}
	wg   sync.WaitGroup
}

// StartOpenLoop begins releasing reqs, which must be sorted by Due,
// against start. Wait returns once every request has completed.
func StartOpenLoop(reqs []Request, conns int, start time.Time) *OpenLoop {
	l := &OpenLoop{reqs: reqs, out: make([]Outcome, len(reqs)), done: make([]chan struct{}, len(reqs))}
	for i := range l.done {
		l.done[i] = make(chan struct{})
	}
	// Sized to the whole schedule so releasing a request never blocks
	// the generator behind busy workers.
	work := make(chan int, len(reqs))
	for w := 0; w < max(1, conns); w++ {
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			for i := range work {
				l.serve(i, start)
			}
		}()
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		defer close(work)
		for i, r := range reqs {
			if d := time.Until(start.Add(r.Due)); d > 0 {
				time.Sleep(d)
			}
			l.out[i].Sent = time.Now()
			work <- i
		}
	}()
	return l
}

func (l *OpenLoop) serve(i int, start time.Time) {
	r := l.reqs[i]
	if r.After >= 0 {
		<-l.done[r.After]
	}
	o := &l.out[i]
	o.Err = r.Do()
	o.Acked = time.Now()
	due := start.Add(r.Due)
	o.Latency = o.Acked.Sub(due)
	o.Late = max(0, o.Sent.Sub(due))
	close(l.done[i])
}

// Done returns a channel closed once request i has completed.
func (l *OpenLoop) Done(i int) <-chan struct{} { return l.done[i] }

// Wait blocks until every request has completed and returns the
// outcomes, indexed like the schedule.
func (l *OpenLoop) Wait() []Outcome {
	l.wg.Wait()
	return l.out
}
