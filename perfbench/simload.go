package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/faults"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/sim"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// simWorkloads are the three workloads the simulator and the daemon
// share: the perf database is built over them in set-up, and every
// generated job draws one of them.
var simWorkloads = []model.Workload{
	{Model: "WRes-1B", GlobalBatch: 256},
	{Model: "GPT-1.3B", GlobalBatch: 128},
	{Model: "GPT-2.6B", GlobalBatch: 128},
}

// dbSeed seeds the engine the perf database is measured on. It is fixed
// rather than drawn from --seed: the database describes the hardware,
// the trace is the input.
const dbSeed = 42

// buildSimDB measures the database the simulation workloads schedule
// against.
func buildSimDB() (*perfdb.DB, error) {
	return perfdb.Build(exec.NewEngine(dbSeed), perfdb.Options{
		GPUTypes: []string{"A40", "A10"}, MaxN: 16, Workloads: simWorkloads,
	})
}

// simSpec describes one simulator workload.
type simSpec struct {
	cluster hw.ClusterSpec
	trace   func(seed uint64) trace.Config
	faults  *faults.Config
	// passSeconds is the host time of one pass on the reference host
	// (see README.md); --seconds buys round(seconds/passSeconds) passes.
	passSeconds float64
}

// deepCluster is the 2048-GPU synthetic cluster of the deep-queue run.
func deepCluster() hw.ClusterSpec {
	return hw.ClusterSpec{
		Name:    "bench-xl",
		Regions: []hw.Region{{GPUType: "A40", Nodes: 512}, {GPUType: "A10", Nodes: 512}},
	}
}

// simDeep is a streamed Helios-like day of 50k jobs on 2048 GPUs: arrivals
// outpace the cluster for most of the day, so the queue grows to
// thousands of jobs and Assign plus the engine's per-job bookkeeping are
// the whole cost.
var simDeep = simSpec{
	cluster: deepCluster(),
	trace: func(seed uint64) trace.Config {
		cfg := trace.HeliosDay(seed, []string{"A40", "A10"}, 50_000)
		cfg.Workloads = simWorkloads
		return cfg
	},
	passSeconds: 10,
}

// simFaults is a three-week Philly-like trace on the heterogeneous
// Cluster-A with node crashes every ~2h per node, stragglers and 15-minute
// checkpoints: the queue stays shallow while preemptions, requeues and
// straggler migrations churn the running set.
var simFaults = simSpec{
	cluster: hw.ClusterA(),
	trace: func(seed uint64) trace.Config {
		return trace.Config{
			Kind: trace.Philly, Duration: 21 * 24 * 3600, NumJobs: 9000, Seed: seed,
			GPUTypes: []string{"A40", "A10"}, MaxGPUs: 16, Workloads: simWorkloads,
		}
	},
	faults: &faults.Config{
		Model: &faults.Model{Default: faults.TypeFaults{
			MTBF: 2 * 3600, MTTR: 1800, SlowEvery: 4 * 3600,
		}},
		CheckpointInterval: 900,
	},
	passSeconds: 0.5,
}

// simFixture is what set-up hands the timed passes.
type simFixture struct {
	db     *perfdb.DB
	cfg    trace.Config
	submit []float64 // every generated job's submission time, ascending
}

func (s simSpec) setup(seed uint64) (*simFixture, error) {
	db, err := buildSimDB()
	if err != nil {
		return nil, err
	}
	cfg := s.trace(seed)
	gen, err := trace.Stream(cfg)
	if err != nil {
		return nil, err
	}
	fx := &simFixture{db: db, cfg: cfg}
	for j, ok := gen.Next(); ok; j, ok = gen.Next() {
		fx.submit = append(fx.submit, j.SubmitTime)
	}
	return fx, nil
}

// simPass is one simulation's observations.
type simPass struct {
	host     time.Duration // wall time of the simulation
	cpu      time.Duration // process CPU time of the simulation
	rounds   Dist          // wall time of each round
	roundCPU Dist          // CPU time of each round
	res      *sim.Result
	pol      *observedPolicy
	src      *observedSource // nil untraced
	gen      int             // jobs generated
	afterEnd int             // generated jobs submitted after the horizon
}

func (s simSpec) pass(fx *simFixture, seed uint64, tr *Tracer) (*simPass, error) {
	gen, err := trace.Stream(fx.cfg)
	if err != nil {
		return nil, err
	}
	var src trace.Source = gen
	p := &simPass{pol: observePolicy(sched.NewArena(), tr), gen: len(fx.submit)}
	if tr != nil {
		src, p.src = observeSource(gen, tr)
	}
	// The simulation runs on this goroutine; pinning it to one thread
	// lets the round timer read the rounds' CPU time.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	rt := newRoundTimer(tr)
	start, cpu := time.Now(), processCPU()
	res, err := sim.Run(sim.Config{
		Spec: s.cluster, Policy: p.pol, Source: src, Streaming: true,
		DB: fx.db, RoundSeconds: 300, IncludeUnfinished: true, Seed: seed,
		Faults: s.faults, Clock: rt, Progress: rt.progress,
	})
	cpu, end := processCPU()-cpu, time.Now()
	rt.finish()
	if err != nil {
		return nil, err
	}
	p.host, p.cpu, p.rounds, p.roundCPU, p.res = end.Sub(start), cpu, rt.rounds, rt.cpu, res
	if tr != nil {
		tr.RecordRoot("sim.finish", "finish", rt.last, end)
	}
	for _, t := range fx.submit {
		if t > res.Horizon {
			p.afterEnd++
		}
	}
	return p, nil
}

// summaryDigest fingerprints everything a simulation reports.
func summaryDigest(res *sim.Result) string {
	return fmt.Sprintf("%d/%d/%d/%d/%d/%d/%x/%x/%x/%x/%x/%x",
		res.Total, res.Finished, res.Dropped, res.Failed, res.Preemptions, res.Restarts,
		res.AvgJCT, res.P50JCT, res.AvgThr, res.GoodputGPUHours, res.WastedGPUHours, res.Horizon)
}

// runSim measures one simulator workload.
func runSim(s simSpec, rc runConfig) (*report, error) {
	rep := newReport()
	fx, err := timeSetup(rep, setupReps, func() (*simFixture, error) { return s.setup(rc.seed) })
	if err != nil {
		return nil, err
	}
	untraced, traced := rep.plan(rc, s.passSeconds)

	var first *simPass
	var firstDigest uint64
	check := func(p *simPass) {
		rep.chk.attempt(p.gen)
		// Job conservation: every generated job is finished, dropped,
		// failed, still unfinished at the horizon, or submitted after it.
		r := p.res
		unfinished := r.Total - r.Finished - r.Dropped - r.Failed
		if unfinished < 0 || r.Total+p.afterEnd != p.gen {
			rep.chk.fail(abs(p.gen-r.Total-p.afterEnd)+max(0, -unfinished),
				"job conservation: generated %d, total %d (finished %d dropped %d failed %d unfinished %d), after horizon %d",
				p.gen, r.Total, r.Finished, r.Dropped, r.Failed, unfinished, p.afterEnd)
		}
		d := digestSeq(p.pol.digests)
		if first == nil {
			first, firstDigest = p, d
			return
		}
		if summaryDigest(r) != summaryDigest(first.res) || d != firstDigest {
			rep.chk.fail(p.gen, "pass digests differ: summary %s vs %s, rounds %x vs %x",
				summaryDigest(r), summaryDigest(first.res), d, firstDigest)
		}
	}

	var plain []*simPass
	for i := 0; i < untraced; i++ {
		rep.passBoundary()
		p, err := s.pass(fx, rc.seed, nil)
		if err != nil {
			return nil, err
		}
		check(p)
		plain = append(plain, p)
	}
	rep.e2e = simE2E(plain)

	if traced > 0 {
		tr := NewTracer()
		var tp []*simPass
		gc := startGoStats()
		for i := 0; i < traced; i++ {
			rep.passBoundary()
			p, err := s.pass(fx, rc.seed, tr)
			if err != nil {
				return nil, err
			}
			check(p)
			tp = append(tp, p)
		}
		gc.stop(rep.layers, traced)
		rep.tracedE2E = simE2E(tp)
		rep.spans, rep.spanPasses = tr.Spans(), traced
		simLayers(rep.layers, tp, rep.spans)
	}

	r := first.res
	rep.detail["avg_jct_h"] = r.AvgJCT / 3600
	rep.detail["goodput_frac"] = goodputFrac(r)
	rep.detail["cluster_samples_per_s"] = r.AvgThr
	rep.detail["jobs"] = r.Total
	rep.detail["finished"] = r.Finished
	rep.detail["failed"] = r.Failed
	rep.detail["summary_digest"] = summaryDigest(r)
	rep.detail["round_digest"] = fmt.Sprintf("%016x", firstDigest)
	rep.detail["passes"] = untraced
	var passS []float64
	for _, p := range plain {
		passS = append(passS, p.host.Seconds())
	}
	rep.detail["pass_s"] = passS
	rep.detailDist("round_ms", roundLatency(plain, func(p *simPass) *Dist { return &p.rounds }))
	rep.detailDist("round_cpu_ms", roundLatency(plain, func(p *simPass) *Dist { return &p.roundCPU }))
	var retired int
	var host time.Duration
	for _, p := range plain {
		retired += p.res.Finished + p.res.Dropped + p.res.Failed
		host += p.host
	}
	rep.detail["jobs_per_s"] = float64(retired) / host.Seconds()
	rep.detail["jobs_per_cpu_s"] = rep.e2e["throughput_per_s"]
	return rep, nil
}

func goodputFrac(r *sim.Result) float64 {
	if t := r.GoodputGPUHours + r.WastedGPUHours; t > 0 {
		return r.GoodputGPUHours / t
	}
	return 0
}

// roundLatency merges the round times of passes over the same trace:
// every pass fires the same rounds with the same decisions.
func roundLatency(ps []*simPass, d func(*simPass) *Dist) *Dist {
	ds := make([]*Dist, len(ps))
	for i, p := range ps {
		ds[i] = d(p)
	}
	return repeatMedian(ds)
}

// simE2E derives the end-to-end metrics of a set of passes from CPU
// time, which leaves out the time the hypervisor steals from the vCPU:
// jobs retired per CPU second over the whole timed phase, the CPU time
// of a round, and the simulated mean cluster throughput. The simulation
// is single-threaded, so on an idle host its CPU time is its wall time
// plus the garbage collector's work.
func simE2E(ps []*simPass) map[string]float64 {
	var cpu time.Duration
	var retired int
	for _, p := range ps {
		cpu += p.cpu
		retired += p.res.Finished + p.res.Dropped + p.res.Failed
	}
	rounds := roundLatency(ps, func(p *simPass) *Dist { return &p.roundCPU })
	tail, _ := rounds.Tail()
	return map[string]float64{
		"throughput_per_s":   float64(retired) / cpu.Seconds(),
		"latency_ms_p50":     rounds.Median(),
		"latency_ms_tail":    tail.Value,
		"plan_samples_per_s": ps[0].res.AvgThr,
	}
}

// simLayers fills the per-layer split of traced passes, per pass.
func simLayers(m map[string]float64, ps []*simPass, spans []Span) {
	n := float64(len(ps))
	get := Aggregate(spans).get
	assign := get("sched.assign")
	m["sched.assign_ms"] = assign.Total / n
	m["sched.assign_ms_p50"] = assign.Dist.Median()
	if t, ok := assign.Dist.Tail(); ok {
		m["sched.assign_ms_tail"] = t.Value
	}
	m["sched.assign_calls"] = float64(assign.Count) / n
	var queued, placed, migr, jobs int
	for _, p := range ps {
		queued += p.pol.queued
		placed += p.pol.placed
		jobs += p.src.jobs
		migr += p.pol.migrate
	}
	if assign.Count > 0 {
		m["sched.queue_depth_mean"] = float64(queued) / float64(assign.Count)
	}
	m["sched.placed"] = float64(placed) / n
	round := get("sim.round")
	m["sim.round_self_ms"] = round.Self / n
	m["sim.rounds"] = float64(round.Count) / n
	m["sim.finish_ms"] = get("sim.finish").Total / n
	m["trace.next_ms"] = get("trace.next").Total / n
	m["trace.jobs"] = float64(jobs) / n
	r := ps[0].res
	m["faults.preemptions"] = float64(r.Preemptions)
	m["faults.restarts"] = float64(r.Restarts)
	m["faults.failed"] = float64(r.Failed)
	m["faults.migrations"] = float64(migr) / n
}
