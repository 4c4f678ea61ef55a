package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/sjtu-epcc/arena/internal/clock"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/rng"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/server"
	"github.com/sjtu-epcc/arena/internal/store"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// The daemon workload drives the journaled scheduler service over
// loopback HTTP the way independent users would: an open-loop stream of
// requests, while rounds fire on a compressed cadence (roundEvery of host
// time per roundSimSeconds of simulated time), so submits wait for an
// in-flight round's hold on the server mutex. Then the journal is
// replayed by repeated restarts.
const (
	roundEvery        = 50 * time.Millisecond // host time between rounds
	roundSimSeconds   = 300                   // simulated seconds per round
	loadRounds        = 60                    // rounds under load per pass
	submitsPerPass    = 300                   // jobs submitted per pass: 100/s over the load on average
	otherRate         = 100                   // queries, stats reads and cancels per host second
	drainRounds       = 4000                  // cap on rounds stepped to finish every job
	restarts          = 10                    // journal replays per pass
	daemonPassSeconds = 3.5                   // host seconds per pass on the reference host
)

// daemonFixture is the set-up every pass shares.
type daemonFixture struct {
	db *perfdb.DB
	daemonSchedule
}

// daemonSchedule is one pass's requests, sorted by due time, and the
// jobs they submit.
type daemonSchedule struct {
	plan []daemonReq
	jobs []trace.Job // generated submissions, in plan order
	// waitFor[k] lists the submits and cancels that must be acknowledged
	// before round k fires: those the round's decision depends on.
	waitFor [][]int
}

type daemonReq struct {
	kind  string // submit | query | stats | cancel
	due   time.Duration
	job   int // submit: index into jobs; query/cancel: target job
	after int // request index the request depends on, or -1
	round int // first round that sees the request's effect
}

// daemonPlan is the daemon's set-up: the perf database the server
// schedules against and the request schedule every pass replays.
func daemonPlan(seed uint64) (*daemonFixture, error) {
	db, err := buildSimDB()
	if err != nil {
		return nil, err
	}
	sch, err := daemonRequests(seed)
	if err != nil {
		return nil, err
	}
	return &daemonFixture{db: db, daemonSchedule: *sch}, nil
}

// daemonRequests generates one pass's request schedule from the seed.
// Submits arrive as a Philly-like trace does: the generator's submission
// times over loadRounds simulated rounds, compressed onto the host
// cadence, so arrivals are bursty — a quiet start with spikes, then a
// heavy tail. A job submitted at simulated time t is first seen by round
// ceil(t / roundSimSeconds) and is due on the host at the same point of
// the compressed timeline. Queries, stats reads and cancels arrive at a
// fixed rate in between. A query targets an earlier submit; a cancel
// targets an earlier submit that its own round first sees, so the job is
// still pending when the cancel applies and every request succeeds.
func daemonRequests(seed uint64) (*daemonSchedule, error) {
	gen, err := trace.Generate(trace.Config{
		Kind: trace.Philly, Duration: loadRounds * roundSimSeconds, NumJobs: submitsPerPass, Seed: seed,
		GPUTypes: []string{"A40", "A10"}, MaxGPUs: 16, Workloads: simWorkloads, LifespanScale: 0.05,
	})
	if err != nil {
		return nil, err
	}
	hostPerSim := roundEvery.Seconds() / roundSimSeconds
	var plan []daemonReq
	for j := range gen {
		t := gen[j].SubmitTime
		if t <= 0 {
			// A zero submission time would be stamped by the server.
			return nil, fmt.Errorf("daemon plan: job %d has submission time %g", j, t)
		}
		gen[j].ID = fmt.Sprintf("job-%05d", j)
		plan = append(plan, daemonReq{
			kind: "submit", job: j, after: -1,
			due:   time.Duration(t * hostPerSim * float64(time.Second)),
			round: int(math.Ceil(t / roundSimSeconds)),
		})
	}
	interval := time.Second / otherRate
	r := rng.Derive(seed, rng.HashString("perfbench/daemon"))
	for i := 0; i < int(loadRounds*roundEvery/interval); i++ {
		due := time.Duration(i)*interval + interval/2
		q := daemonReq{kind: "stats", due: due, after: -1, round: int(math.Ceil(float64(due) / float64(roundEvery)))}
		if u := r.Float64(); u < 0.70 {
			q.kind = "query"
		} else if u >= 0.94 {
			q.kind = "cancel"
		}
		plan = append(plan, q)
	}
	// Submits sort before other requests due at the same instant.
	sort.SliceStable(plan, func(a, b int) bool { return plan[a].due < plan[b].due })

	sch := &daemonSchedule{jobs: gen, waitFor: make([][]int, loadRounds+1)}
	var submitReq []int // request index of each submitted job, in due order
	cancelled := map[int]bool{}
	for i := range plan {
		q := &plan[i]
		switch q.kind {
		case "submit":
			submitReq = append(submitReq, i)
		case "query":
			if len(submitReq) == 0 {
				q.kind = "stats"
				break
			}
			k := submitReq[r.Intn(len(submitReq))]
			q.job, q.after = plan[k].job, k
		case "cancel":
			q.kind = "stats"
			// Cancel the latest submit its round first sees that is not
			// cancelled yet, if there is one.
			for j := len(submitReq) - 1; j >= 0 && plan[submitReq[j]].round == q.round; j-- {
				if k := submitReq[j]; !cancelled[k] {
					q.kind, q.job, q.after = "cancel", plan[k].job, k
					cancelled[k] = true
					break
				}
			}
		}
		if q.round > loadRounds {
			return nil, fmt.Errorf("daemon plan: request %d is due after the last round under load", i)
		}
		if q.kind == "submit" || q.kind == "cancel" {
			sch.waitFor[q.round] = append(sch.waitFor[q.round], i)
		}
	}
	sch.plan = plan
	return sch, nil
}

// daemonPass is one pass's observations.
type daemonPass struct {
	outcomes []Outcome
	kinds    []string
	// Host and CPU time of every round stepped (under load, then
	// draining), read from the stepping thread, and of every restart,
	// read from the whole process: nothing else runs during a restart.
	steps, stepCPU     Dist
	replays, replayCPU Dist
	records            int
	journal            int64
	digest             uint64
	stats              server.StatsView
	jcts               []float64 // simulated JCT of every finished job, seconds
	rates              []float64 // samples/s of every finished job from launch to finish
	// survived counts the acknowledged submits the worst restart kept;
	// badReplays the restarts that rebuilt other counters than the run
	// ended with; replayErr why a restart refused the journal.
	survived   int
	badReplays int
	replayErr  error
}

func runDaemonPass(rc runConfig, fx *daemonFixture, i int, tr *Tracer) (p *daemonPass, err error) {
	// Rounds run on this goroutine; pinning it to one thread lets
	// threadCPU bracket their CPU time while requests are served on
	// other threads.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	dir := filepath.Join(rc.workdir, fmt.Sprintf("daemon-%d", i))
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}()
	cfg := func() server.Config {
		return server.Config{
			Spec: hw.ClusterA(), Policy: observePolicy(sched.NewArena(), tr), DB: fx.db,
			RoundSeconds: roundSimSeconds, Seed: rc.seed, Store: st, Clock: clock.NewVirtual(),
		}
	}
	srv, err := server.New(cfg())
	if err != nil {
		return nil, err
	}
	p = &daemonPass{}
	if err := p.load(srv, fx, tr); err != nil {
		srv.Close()
		return nil, err
	}
	// Drain: step rounds back to back until every job is terminal, so
	// the simulated outcome is complete.
	for r := 0; r < drainRounds; r++ {
		s := srv.Stats()
		if s.Pending+s.Queued+s.Running == 0 {
			break
		}
		asg, err := p.step(srv, tr)
		if err != nil {
			srv.Close()
			return nil, err
		}
		p.digest = digestSeq([]uint64{p.digest, digestAssignment(asg)})
	}
	p.stats = srv.Stats()
	p.records = p.stats.JournalRecords
	for _, v := range srv.Jobs() {
		if v.State == string(sched.StateFinished) {
			p.jcts = append(p.jcts, v.FinishedAt-v.SubmitTime)
			if run := v.FinishedAt - v.LaunchedAt; v.LaunchedAt >= 0 && run > 0 {
				p.rates = append(p.rates, float64(v.Iterations)*float64(v.GlobalBatch)/run)
			}
		}
	}
	if err := srv.Close(); err != nil {
		return nil, err
	}
	if info, err := os.Stat(filepath.Join(dir, "journal", "server.log")); err == nil {
		p.journal = info.Size()
	}

	// Recovery: restart from the journal repeatedly; every restart must
	// rebuild the same state and keep every acknowledged submit. A journal
	// that no longer replays loses them all, which the checks count.
	for r := 0; r < restarts; r++ {
		runtime.GC()
		start := time.Now()
		tr.Open("server.replay", fmt.Sprintf("replay-%d", r), start)
		cpu := processCPU()
		srv, err := server.New(cfg())
		cpu = processCPU() - cpu
		end := time.Now()
		tr.Close(end)
		if err != nil {
			p.survived, p.replayErr = 0, err
			break
		}
		p.replays.Add(ms(end.Sub(start)))
		p.replayCPU.Add(ms(cpu))
		kept := 0
		for j, o := range p.outcomes {
			if p.kinds[j] != "submit" || o.Err != nil {
				continue
			}
			if _, err := srv.Job(fx.jobs[fx.plan[j].job].ID); err == nil {
				kept++
			}
		}
		if r == 0 || kept < p.survived {
			p.survived = kept
		}
		again := srv.Stats()
		if err := srv.Close(); err != nil {
			return nil, err
		}
		if again.Finished != p.stats.Finished || again.Dropped != p.stats.Dropped || again.NextRound != p.stats.NextRound {
			p.badReplays++
		}
	}
	return p, nil
}

// step fires one round, times its host and CPU time, and records it as
// a server.step span.
func (p *daemonPass) step(srv *server.Server, tr *Tracer) (sched.Assignment, error) {
	start := time.Now()
	tr.Open("server.step", fmt.Sprintf("round-%d", p.steps.Len()), start)
	cpu := threadCPU()
	asg, err := srv.Step()
	cpu = threadCPU() - cpu
	end := time.Now()
	tr.Close(end)
	p.steps.Add(ms(end.Sub(start)))
	p.stepCPU.Add(ms(cpu))
	return asg, err
}

// load serves the HTTP API on loopback and runs the open-loop schedule
// against it while a stepper fires rounds on the compressed cadence.
func (p *daemonPass) load(srv *server.Server, fx *daemonFixture, tr *Tracer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	conns := runtime.NumCPU()
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
	base := "http://" + ln.Addr().String()

	reqs := make([]Request, len(fx.plan))
	p.kinds = make([]string, len(fx.plan))
	for i, q := range fx.plan {
		i, q := i, q
		p.kinds[i] = q.kind
		var do func() error
		switch q.kind {
		case "submit":
			body, err := json.Marshal(fx.jobs[q.job])
			if err != nil {
				return err
			}
			do = func() error { return call(client, http.MethodPost, base+"/v1/jobs", body) }
		case "query":
			do = func() error { return call(client, http.MethodGet, base+"/v1/jobs/"+fx.jobs[q.job].ID, nil) }
		case "stats":
			do = func() error { return call(client, http.MethodGet, base+"/v1/stats", nil) }
		case "cancel":
			do = func() error { return call(client, http.MethodDelete, base+"/v1/jobs/"+fx.jobs[q.job].ID, nil) }
		}
		if tr != nil {
			inner := do
			do = func() error {
				start := time.Now()
				err := inner()
				tr.RecordRoot("http."+q.kind, fmt.Sprintf("req-%d", i), start, time.Now())
				return err
			}
		}
		reqs[i] = Request{Due: q.due, After: q.after, Do: do}
	}

	// Round 0 fires before any request, on an empty queue.
	asg, err := p.step(srv, tr)
	if err != nil {
		return err
	}
	p.digest = digestAssignment(asg)
	start := time.Now()
	loop := StartOpenLoop(reqs, conns, start)
	var stepErr error
	for k := 1; k <= loadRounds && stepErr == nil; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * roundEvery)))
		// Barrier: every submit and cancel this round sees has been
		// acknowledged, so the round's decision never depends on host
		// timing.
		for _, i := range fx.waitFor[k] {
			<-loop.Done(i)
		}
		asg, err := p.step(srv, tr)
		stepErr = err
		p.digest = digestSeq([]uint64{p.digest, digestAssignment(asg)})
	}
	p.outcomes = loop.Wait()
	client.CloseIdleConnections()
	if err := hs.Shutdown(context.Background()); err != nil {
		return err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return stepErr
}

// call performs one request; any status outside 2xx is an error.
func call(c *http.Client, method, url string, body []byte) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

func runDaemon(rc runConfig) (*report, error) {
	rep := newReport()
	fx, err := timeSetup(rep, setupReps, func() (*daemonFixture, error) { return daemonPlan(rc.seed) })
	if err != nil {
		return nil, err
	}
	untraced, traced := rep.plan(rc, daemonPassSeconds)
	var first *daemonPass
	check := func(p *daemonPass) {
		rep.chk.attempt(len(p.outcomes))
		for i, o := range p.outcomes {
			if o.Err != nil {
				rep.chk.fail(1, "request %d (%s): %v", i, p.kinds[i], o.Err)
			}
		}
		acked := 0
		for i, o := range p.outcomes {
			if p.kinds[i] == "submit" && o.Err == nil {
				acked++
			}
		}
		if p.survived != acked {
			rep.chk.fail(acked-p.survived, "replay kept %d of %d acknowledged submits (restart error: %v)", p.survived, acked, p.replayErr)
		}
		if p.badReplays > 0 {
			rep.chk.fail(p.badReplays, "%d of %d restarts rebuilt a different state", p.badReplays, restarts)
		}
		s := p.stats
		if total := s.Finished + s.Dropped + s.Failed + s.Pending + s.Queued + s.Running; total != acked {
			rep.chk.fail(abs(total-acked), "job conservation: %d acked submits, server holds %d", acked, total)
		}
		if first == nil {
			first = p
		} else if p.digest != first.digest || p.stats.Finished != first.stats.Finished || p.records != first.records {
			rep.chk.fail(acked, "pass digests differ: rounds %x vs %x, finished %d vs %d, records %d vs %d",
				p.digest, first.digest, p.stats.Finished, first.stats.Finished, p.records, first.records)
		}
	}
	passes := 0
	run := func(n int, tr *Tracer) ([]*daemonPass, error) {
		var ps []*daemonPass
		for i := 0; i < n; i++ {
			rep.passBoundary()
			passes++
			p, err := runDaemonPass(rc, fx, passes, tr)
			if err != nil {
				return nil, err
			}
			check(p)
			ps = append(ps, p)
		}
		return ps, nil
	}
	plain, err := run(untraced, nil)
	if err != nil {
		return nil, err
	}
	rep.e2e = daemonE2E(plain)
	daemonDetail(rep, plain)
	if traced > 0 {
		tr := NewTracer()
		gc := startGoStats()
		tp, err := run(traced, tr)
		if err != nil {
			return nil, err
		}
		gc.stop(rep.layers, traced)
		rep.tracedE2E = daemonE2E(tp)
		rep.spans, rep.spanPasses = tr.Spans(), traced
		daemonLayers(rep.layers, tp, plain, rep.spans)
	}
	return rep, nil
}

// kindDist collects the latency of one request kind. Every pass replays
// the same schedule against the same server state, so request i of one
// pass repeats request i of the others: each request contributes the
// median of its repeats, which keeps a host stall during one pass from
// reading as slow requests.
func kindDist(ps []*daemonPass, kind string) *Dist {
	ds := make([]*Dist, len(ps))
	for j, p := range ps {
		ds[j] = &Dist{}
		for i, o := range p.outcomes {
			if p.kinds[i] == kind {
				ds[j].Add(float64(o.Latency.Nanoseconds()) / 1e6)
			}
		}
	}
	return repeatMedian(ds)
}

// repeats merges one per-pass distribution over every pass; like
// requests, round i (or restart i) of every pass is the same operation.
func repeats(ps []*daemonPass, d func(*daemonPass) *Dist) *Dist {
	ds := make([]*Dist, len(ps))
	for j, p := range ps {
		ds[j] = d(p)
	}
	return repeatMedian(ds)
}

// lateDist collects how late the generator released each request, over
// every request of every pass.
func lateDist(ps []*daemonPass) *Dist {
	var d Dist
	for _, p := range ps {
		for _, o := range p.outcomes {
			d.Add(float64(o.Late.Nanoseconds()) / 1e6)
		}
	}
	return &d
}

// daemonE2E derives the daemon's end-to-end metrics from CPU time, which
// a vCPU's wake-up, the disk's fsync latency and the time the hypervisor
// steals do not enter: journal records replayed per CPU second of
// restart, the CPU time of a round (what a submit waits for when it
// finds the round holding the server mutex), and the simulated cluster
// throughput. The open-loop request latencies, host time from due to
// ack, are in the detail line.
func daemonE2E(ps []*daemonPass) map[string]float64 {
	replay := repeats(ps, func(p *daemonPass) *Dist { return &p.replayCPU })
	round := repeats(ps, func(p *daemonPass) *Dist { return &p.stepCPU })
	tail, _ := round.Tail()
	return map[string]float64{
		"throughput_per_s":   float64(ps[0].records*replay.Len()) / (replay.Sum() / 1e3),
		"latency_ms_p50":     round.Median(),
		"latency_ms_tail":    tail.Value,
		"plan_samples_per_s": geomean(ps[0].rates),
	}
}

func daemonDetail(rep *report, ps []*daemonPass) {
	p := ps[0]
	rep.detailDist("submit_ms", kindDist(ps, "submit"))
	rep.detailDist("query_ms", kindDist(ps, "query"))
	rep.detailDist("stats_ms", kindDist(ps, "stats"))
	rep.detailDist("cancel_ms", kindDist(ps, "cancel"))
	rep.detailDist("late_ms", lateDist(ps))
	rep.detailDist("round_ms", repeats(ps, func(p *daemonPass) *Dist { return &p.steps }))
	rep.detailDist("round_cpu_ms", repeats(ps, func(p *daemonPass) *Dist { return &p.stepCPU }))
	rep.detailDist("recovery_ms", recoveryDist(ps))
	rep.detailDist("recovery_cpu_ms", repeats(ps, func(p *daemonPass) *Dist { return &p.replayCPU }))
	rep.detail["avg_jct_h"] = mean(p.jcts) / 3600
	rep.detail["job_samples_per_s_geomean"] = geomean(p.rates)
	rep.detail["requests"] = len(p.outcomes)
	rep.detail["finished"] = p.stats.Finished
	rep.detail["dropped"] = p.stats.Dropped
	rep.detail["journal_records"] = p.records
	rep.detail["round_digest"] = fmt.Sprintf("%016x", p.digest)
	rep.detail["passes"] = len(ps)
	rep.detail["connections"] = runtime.NumCPU()
	rep.detail["submits_per_pass"] = submitsPerPass
	rep.detail["other_requests_per_s"] = otherRate
}

// daemonLayers fills the per-layer split from the traced passes; the
// request-level server figures come from the untraced ones.
func daemonLayers(m map[string]float64, tp, plain []*daemonPass, spans []Span) {
	n := float64(len(tp))
	get := Aggregate(spans).get
	assign := get("sched.assign")
	m["sched.assign_ms"] = assign.Total / n
	m["sched.assign_ms_p50"] = assign.Dist.Median()
	if t, ok := assign.Dist.Tail(); ok {
		m["sched.assign_ms_tail"] = t.Value
	}
	m["sched.assign_calls"] = float64(assign.Count) / n
	step, replay := get("server.step"), get("server.replay")
	m["server.step_ms"] = step.Total / n
	m["server.step_self_ms"] = step.Self / n
	m["server.replay_ms"] = replay.Total / float64(max(1, replay.Count))
	m["server.records"] = float64(tp[0].records)
	m["store.journal_bytes"] = float64(tp[0].journal)
	query := kindDist(plain, "query")
	m["server.query_ms_p50"] = query.Median()
	if t, ok := query.Tail(); ok {
		m["server.query_ms_tail"] = t.Value
	}
	m["server.recovery_ms_p50"] = recoveryDist(plain).Median()
	late := lateDist(plain)
	m["loadgen.late_ms_p50"] = late.Median()
	if t, ok := late.Tail(); ok {
		m["loadgen.late_ms_tail"] = t.Value
	}
}

// recoveryDist pools every restart of every pass.
func recoveryDist(ps []*daemonPass) *Dist {
	var d Dist
	for _, p := range ps {
		d.AddAll(&p.replays)
	}
	return &d
}

// geomean is the geometric mean of positive values (0 for none): job
// throughputs span orders of magnitude, and the geometric mean keeps the
// few largest jobs from deciding it.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
