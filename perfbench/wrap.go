package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"github.com/sjtu-epcc/arena/internal/clock"
	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// observedPolicy passes every call through to a sched.Policy and observes
// Assign from outside: it fingerprints each decision and, with a tracer,
// times the call as a "sched.assign" span. It never alters a decision;
// wrap_test.go proves wrapped and unwrapped runs identical.
type observedPolicy struct {
	sched.Policy
	tr *Tracer

	digests []uint64 // one per Assign, in call order
	queued  int      // summed queue depth seen by Assign
	placed  int      // summed Place entries returned
	migrate int      // summed Migrate entries returned
}

func observePolicy(p sched.Policy, tr *Tracer) *observedPolicy {
	return &observedPolicy{Policy: p, tr: tr}
}

func (p *observedPolicy) Assign(ctx *sched.Context) sched.Assignment {
	var start time.Time
	if p.tr != nil {
		start = time.Now()
	}
	asg := p.Policy.Assign(ctx)
	if p.tr != nil {
		p.tr.Record("sched.assign", start, time.Now())
	}
	p.digests = append(p.digests, digestAssignment(asg))
	p.queued += len(ctx.Queued)
	p.placed += len(asg.Place)
	p.migrate += len(asg.Migrate)
	return asg
}

// SetReferenceScore forwards the engine's oracle toggle, so wrapping a
// policy keeps the scoring path the engine selects.
func (p *observedPolicy) SetReferenceScore(on bool) {
	if rs, ok := p.Policy.(sched.ReferenceScorer); ok {
		rs.SetReferenceScore(on)
	}
}

// digestAssignment fingerprints a decision independently of map order:
// placements combine by addition, drops and migrations in list order.
func digestAssignment(a sched.Assignment) uint64 {
	var place uint64
	for id, al := range a.Place {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s\x00%s\x00%d", id, al.GPUType, al.N)
		place += h.Sum64()
	}
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], place)
	binary.LittleEndian.PutUint64(buf[8:], uint64(len(a.Place)))
	h.Write(buf[:])
	for _, id := range a.Drop {
		fmt.Fprintf(h, "d%s\x00", id)
	}
	for _, id := range a.Migrate {
		fmt.Fprintf(h, "m%s\x00", id)
	}
	return h.Sum64()
}

// digestString fingerprints a string.
func digestString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// digestSeq folds a sequence of fingerprints into one.
func digestSeq(ds []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, d := range ds {
		binary.LittleEndian.PutUint64(buf[:], d)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// observedSource times every Next of a trace.Source as a "trace.next"
// span and counts the jobs it yields.
type observedSource struct {
	src  trace.Source
	tr   *Tracer
	jobs int
}

func (s *observedSource) Next() (trace.Job, bool) {
	start := time.Now()
	j, ok := s.src.Next()
	s.tr.Record("trace.next", start, time.Now())
	if ok {
		s.jobs++
	}
	return j, ok
}

// spanSource keeps the horizon of a source that has one: the engine
// derives its round bound from trace.Spanner.
type spanSource struct {
	*observedSource
	sp trace.Spanner
}

func (s spanSource) Span() float64 { return s.sp.Span() }

// observeSource wraps src, keeping trace.Spanner when src implements it.
func observeSource(src trace.Source, tr *Tracer) (trace.Source, *observedSource) {
	o := &observedSource{src: src, tr: tr}
	if sp, ok := src.(trace.Spanner); ok {
		return spanSource{o, sp}, o
	}
	return o, o
}

// roundTimer times each simulator round from outside the engine. The
// simulator's loop waits on its clock immediately before a round and
// emits a "sim.round" progress event immediately after it, so the host
// time between the two is the round. It wraps the virtual clock the
// simulator uses by default and leaves simulated time untouched. The
// round's CPU time is read from the calling thread, to which the caller
// locks the simulation.
type roundTimer struct {
	inner      *clock.Virtual
	tr         *Tracer
	started    time.Time
	startedCPU time.Duration
	open       bool
	rounds     Dist      // wall time per round
	cpu        Dist      // CPU time per round
	last       time.Time // end of the latest round
}

func newRoundTimer(tr *Tracer) *roundTimer { return &roundTimer{inner: clock.NewVirtual(), tr: tr} }

func (r *roundTimer) Now() float64 { return r.inner.Now() }

func (r *roundTimer) Wait(ctx context.Context, t float64) error {
	err := r.inner.Wait(ctx, t)
	r.started, r.startedCPU, r.open = time.Now(), threadCPU(), true
	if r.tr != nil {
		r.tr.Open("sim.round", fmt.Sprintf("round-%d", r.rounds.Len()), r.started)
	}
	return err
}

// progress is the simulator's Progress hook: a "sim.round" event closes
// the round opened by the preceding Wait.
func (r *roundTimer) progress(e core.Event) {
	if e.Step != "sim.round" || !r.open {
		return
	}
	cpu := threadCPU() - r.startedCPU
	r.last = time.Now()
	r.rounds.Add(ms(r.last.Sub(r.started)))
	r.cpu.Add(ms(cpu))
	r.tr.Close(r.last)
	r.open = false
}

// finish drops a Wait that ended the loop rather than starting a round.
func (r *roundTimer) finish() {
	if r.open {
		r.tr.Discard()
		r.open = false
	}
}
