package main

import (
	"context"
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"time"

	arena "github.com/sjtu-epcc/arena"
	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/evalcache"
	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/planner"
	"github.com/sjtu-epcc/arena/internal/profiler"
	"github.com/sjtu-epcc/arena/internal/search"
	"github.com/sjtu-epcc/arena/internal/store"
)

// planTypes are the GPU types plan-cold builds columns for.
var planTypes = []string{"A40", "A10"}

// planMaxN caps allocations, as the simulator's database does.
const planMaxN = 16

// planSet is plan-cold's fixed workload set: three sizes from each model
// family at different batch sizes, so the planner sees both
// memory-comfortable and memory-tight grids. The store keeps one perfdb
// column per workload, covering both GPU types: 9 columns per cold build.
var planSet = []model.Workload{
	{Model: "WRes-0.5B", GlobalBatch: 256},
	{Model: "WRes-1B", GlobalBatch: 512},
	{Model: "WRes-2B", GlobalBatch: 256},
	{Model: "GPT-0.76B", GlobalBatch: 128},
	{Model: "GPT-1.3B", GlobalBatch: 256},
	{Model: "GPT-2.6B", GlobalBatch: 128},
	{Model: "MoE-0.69B", GlobalBatch: 256},
	{Model: "MoE-1.3B", GlobalBatch: 512},
	{Model: "MoE-2.4B", GlobalBatch: 256},
}

const (
	// planPassSeconds is the host time of one plan-cold pass on the
	// reference host (README.md).
	planPassSeconds = 0.6
	// warmLoads is how many warm reloads each pass times. A few per pass
	// over many passes keep the load tail at a percentile (~p94) that a
	// single host hiccup does not decide.
	warmLoads = 6
)

func planOptions(seed uint64) perfdb.Options {
	return perfdb.Options{Seed: seed, GPUTypes: planTypes, MaxN: planMaxN, Workloads: planSet}
}

// planPass is one cold build plus its warm reloads.
type planPass struct {
	cold    time.Duration // wall time of the cold build
	coldCPU time.Duration // process CPU time of the cold build
	columns int
	loads   Dist // wall time of each warm load
	loadCPU Dist // process CPU time of each warm load
	db      *perfdb.DB
	cache   evalcache.Stats
	stats   perfdb.StoreStats
	loaded  int // columns served by the warm loads
	objects int
	bytes   int64
}

// planFixture is plan-cold's set-up: the reference database that every
// timed cold build is checked against, built on a session of its own, and
// a fresh session for every timed pass.
type planFixture struct {
	ref      *perfdb.DB
	sessions []*arena.Session
}

func planSetup(seed uint64, passes int) (*planFixture, error) {
	s, err := newPlanSession(seed)
	if err != nil {
		return nil, err
	}
	opts := planOptions(seed)
	opts.EvalCache = s.EvalCache()
	fx := &planFixture{sessions: make([]*arena.Session, passes)}
	if fx.ref, err = perfdb.Build(s.Engine(), opts); err != nil {
		return nil, err
	}
	for i := range fx.sessions {
		if fx.sessions[i], err = newPlanSession(seed); err != nil {
			return nil, err
		}
	}
	return fx, nil
}

// newPlanSession makes the session a cold build runs in: a fresh engine
// and eval cache, as a newly started process has.
func newPlanSession(seed uint64) (*arena.Session, error) {
	return arena.New(
		arena.WithSeed(seed), arena.WithGPUTypes(planTypes...), arena.WithMaxN(planMaxN),
		arena.WithWorkloads(planSet...),
	)
}

// coldBuild builds the database with the session's engine and eval cache
// into an empty store. The store holds the perfdb columns only:
// Session.BuildPerfDB with WithStore would also persist the session's
// eval cache on Close, which costs several times the build and is no
// part of building or loading the database.
func coldBuild(ctx context.Context, s *arena.Session, seed uint64, st *store.Store, p *planPass) error {
	opts := planOptions(seed)
	opts.EvalCache = s.EvalCache()
	start, cpu := time.Now(), processCPU()
	db, stats, err := perfdb.BuildOrLoadStore(ctx, s.Engine(), opts, st)
	p.coldCPU, p.cold = processCPU()-cpu, time.Since(start)
	p.db, p.stats, p.cache, p.columns = db, stats, s.EvalCache().Stats(), stats.BuiltColumns
	return err
}

// planPassRun builds the database cold into an empty store, reloads it
// warm warmLoads times, and checks every reload against the cold build
// key for key. The reloads run as a freshly started process would: on a
// new engine, after the cold build's session and garbage are collected,
// so no collection of the build's heap runs under them.
func planPassRun(ctx context.Context, rc runConfig, s *arena.Session, i int, chk *checker) (p *planPass, err error) {
	dir := filepath.Join(rc.workdir, fmt.Sprintf("store-%d", i))
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}()
	p = &planPass{}
	if err := coldBuild(ctx, s, rc.seed, st, p); err != nil {
		return nil, err
	}
	db := p.db
	want := len(planSet) // the store keeps one column per workload, covering every GPU type
	chk.attempt(want)
	if p.stats.BuiltColumns != want || p.stats.LoadedColumns != 0 {
		chk.fail(want-p.stats.BuiltColumns, "cold build: built %d loaded %d columns, want %d built", p.stats.BuiltColumns, p.stats.LoadedColumns, want)
	}

	runtime.GC()
	eng := exec.NewEngine(rc.seed)
	for l := 0; l < warmLoads; l++ {
		start, cpu := time.Now(), processCPU()
		warm, stats, err := perfdb.BuildOrLoadStore(ctx, eng, planOptions(rc.seed), st)
		cpu = processCPU() - cpu
		p.loads.Add(ms(time.Since(start)))
		p.loadCPU.Add(ms(cpu))
		if err != nil {
			return nil, err
		}
		p.loaded += stats.LoadedColumns
		chk.attempt(want)
		if stats.LoadedColumns != want || stats.BuiltColumns != 0 {
			chk.fail(want-stats.LoadedColumns, "warm load %d: loaded %d built %d columns, want %d loaded", l, stats.LoadedColumns, stats.BuiltColumns, want)
		}
		if bad := diffDB(db, warm); bad > 0 {
			chk.fail(bad, "warm load %d differs from the cold build at %d keys", l, bad)
		}
	}

	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		p.objects++
		p.bytes += info.Size()
		return nil
	})
	return p, err
}

// diffDB counts the keys on which two databases disagree.
func diffDB(a, b *perfdb.DB) int {
	bad := 0
	keys := a.Keys()
	if len(keys) != len(b.Keys()) {
		bad++
	}
	for _, k := range keys {
		ea, _ := a.Entry(k.Workload, k.GPUType, k.N)
		eb, ok := b.Entry(k.Workload, k.GPUType, k.N)
		if !ok || *ea != *eb {
			bad++
		}
	}
	return bad
}

// dbDigest fingerprints a database's entries in key order.
func dbDigest(db *perfdb.DB) string {
	h := make([]uint64, 0, len(db.Keys()))
	for _, k := range db.Keys() {
		e, _ := db.Entry(k.Workload, k.GPUType, k.N)
		h = append(h, digestString(fmt.Sprintf("%v|%+v", k, *e)))
	}
	return fmt.Sprintf("%016x", digestSeq(h))
}

// planSamplesPerS is the simulated mean throughput of the plans the
// database deploys for Arena, over every feasible point.
func planSamplesPerS(db *perfdb.DB) float64 {
	sum, n := 0.0, 0
	for _, k := range db.Keys() {
		if e, _ := db.Entry(k.Workload, k.GPUType, k.N); e.ArenaActualThr > 0 {
			sum += e.ArenaActualThr
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func runPlanCold(rc runConfig) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	n := passCount(rc.seconds, planPassSeconds)
	fx, err := timeSetup(rep, setupReps, func() (*planFixture, error) { return planSetup(rc.seed, n) })
	if err != nil {
		return nil, err
	}

	// Every pass runs untraced: perfdb hides its layer calls, so the
	// traced run replays one build layer by layer afterwards.
	var passes []*planPass
	for i, s := range fx.sessions {
		rep.passBoundary()
		p, err := planPassRun(ctx, rc, s, i, &rep.chk)
		if err != nil {
			return nil, err
		}
		fx.sessions[i] = nil // let the pass's eval cache be collected
		if bad := diffDB(fx.ref, p.db); bad > 0 {
			rep.chk.fail(bad, "cold build %d differs from the reference at %d keys", i, bad)
		}
		passes = append(passes, p)
	}
	rep.e2e = planE2E(passes)
	if rc.trace {
		if err := planTrace(ctx, rc.seed, fx.ref, passes, rep); err != nil {
			return nil, err
		}
	}

	var cold, coldCPU time.Duration
	var columns int
	for _, p := range passes {
		cold += p.cold
		coldCPU += p.coldCPU
		columns += p.columns
	}
	rep.detail["columns_per_s"] = float64(columns) / cold.Seconds()
	rep.detail["columns_per_cpu_s"] = rep.e2e["throughput_per_s"]
	// CPU seconds per wall second of the cold builds: how well they use
	// the cores, which the CPU-time throughput leaves out.
	rep.detail["build_parallelism"] = coldCPU.Seconds() / cold.Seconds()
	var loads Dist
	for _, p := range passes {
		loads.AddAll(&p.loads)
	}
	rep.detailDist("load_ms", &loads)
	var loadCPU Dist
	for _, p := range passes {
		loadCPU.AddAll(&p.loadCPU)
	}
	rep.detailDist("load_cpu_ms", &loadCPU)
	rep.detail["plan_samples_per_s"] = planSamplesPerS(fx.ref)
	rep.detail["db_digest"] = dbDigest(fx.ref)
	rep.detail["columns"] = passes[0].columns
	rep.detail["passes"] = len(passes)
	return rep, nil
}

// planTrace fills plan-cold's per-layer metrics. The layer times come
// from replaying one cold build layer by layer, once untraced and once
// traced; the tracing overhead is the difference between the two
// replays. The perfdb, store and eval-cache figures come from the passes.
func planTrace(ctx context.Context, seed uint64, db *perfdb.DB, passes []*planPass, rep *report) error {
	runtime.GC()
	start := time.Now()
	if _, err := planLayers(ctx, seed, db, nil, rep); err != nil {
		return err
	}
	plain := time.Since(start)
	runtime.GC()
	tr := NewTracer()
	gc := startGoStats()
	start = time.Now()
	calls, err := planLayers(ctx, seed, db, tr, rep)
	if err != nil {
		return err
	}
	traced := time.Since(start)
	gc.stop(rep.layers, 1)
	rep.spans, rep.spanPasses = tr.Spans(), 1
	m := rep.layers
	m["spans.overhead_pct"] = 100 * (traced.Seconds()/plain.Seconds() - 1)
	// The warm loads are not traced, so there is no latency overhead to
	// report; the metric reads 0.
	m["spans.overhead_latency_pct"] = 0
	rep.detail["untraced"] = map[string]float64{"replay_ms": ms(plain)}
	rep.detail["traced"] = map[string]float64{"replay_ms": ms(traced)}
	rep.detail["overhead_latency"] = "n/a: warm loads are not traced"

	agg := Aggregate(rep.spans)
	total := func(name string) float64 { return agg.get(name).Total }
	m["model.build_ms"] = total("model.build")
	m["profiler.comm_ms"] = total("profiler.comm")
	m["profiler.profile_ms"] = total("profiler.profile")
	m["planner.plan_ms"] = total("planner.plan")
	m["search.full_ms"] = total("search.full")
	m["search.pruned_ms"] = total("search.pruned")
	m["profiler.grids"] = float64(calls.grids)
	m["planner.candidates"] = float64(calls.candidates)
	m["search.calls"] = float64(calls.searches)
	var cold, objects, bytes, built, loaded float64
	var st evalcache.Stats
	for _, p := range passes {
		cold += ms(p.cold)
		objects += float64(p.objects)
		bytes += float64(p.bytes)
		built += float64(p.stats.BuiltColumns)
		loaded += float64(p.loaded)
		st.StageHits += p.cache.StageHits
		st.StageMisses += p.cache.StageMisses
		st.PlanHits += p.cache.PlanHits
		st.PlanMisses += p.cache.PlanMisses
	}
	n := float64(len(passes))
	m["perfdb.build_ms"] = cold / n
	m["perfdb.columns_built"] = built / n
	m["perfdb.columns_loaded"] = loaded / n
	m["store.objects"] = objects / n
	m["store.bytes"] = bytes / n
	stageN, planN := st.StageHits+st.StageMisses, st.PlanHits+st.PlanMisses
	m["evalcache.stage_lookups"] = float64(stageN) / n
	m["evalcache.plan_lookups"] = float64(planN) / n
	if stageN > 0 {
		m["evalcache.stage_hit_ratio"] = float64(st.StageHits) / float64(stageN)
	}
	if planN > 0 {
		m["evalcache.plan_hit_ratio"] = float64(st.PlanHits) / float64(planN)
	}
	return nil
}

// planE2E derives plan-cold's end-to-end metrics from process CPU time,
// which leaves out the time the hypervisor steals: cold columns built per
// CPU second over every cold build, and the CPU time of a warm load.
// Nothing else runs beside either. The wall-clock figures, and the cold
// build's parallelism, are in the detail line.
func planE2E(ps []*planPass) map[string]float64 {
	var cold time.Duration
	var columns int
	var loads Dist
	for _, p := range ps {
		cold += p.coldCPU
		columns += p.columns
		loads.AddAll(&p.loadCPU)
	}
	tail, _ := loads.Tail()
	return map[string]float64{
		"throughput_per_s":   float64(columns) / cold.Seconds(),
		"latency_ms_p50":     loads.Median(),
		"latency_ms_tail":    tail.Value,
		"plan_samples_per_s": planSamplesPerS(ps[0].db),
	}
}

// layerCalls counts the layer calls of the traced decomposition.
type layerCalls struct{ grids, candidates, searches int }

// planLayers replays one cold build layer by layer through each layer's
// public functions, in the order perfdb.Build calls them for a column —
// comm sampling, graph build, per-grid planning and profiling, then the
// full and pruned searches of every (type, count) point — timing each
// call as a span. It runs serially on a fresh engine and eval cache, so
// each layer's time is its busy time without the build's fan-out. A nil
// tracer replays without recording spans. The
// replayed results are compared with the built database; a mismatch means
// the replay no longer mirrors perfdb and is reported, not failed.
func planLayers(ctx context.Context, seed uint64, db *perfdb.DB, tr *Tracer, rep *report) (layerCalls, error) {
	var calls layerCalls
	eng := exec.NewEngine(seed)
	cache := evalcache.New(eng)
	opts := search.Options{Cache: cache, Workers: 1}
	timed := func(name string, f func() error) error {
		start := time.Now()
		err := f()
		tr.Record(name, start, time.Now())
		return err
	}
	var ct *profiler.CommTable
	if err := timed("profiler.comm", func() (err error) {
		ct, err = profiler.OfflineSampleComm(eng, planTypes, planMaxN)
		return err
	}); err != nil {
		return calls, err
	}
	mismatches := 0
	for _, w := range planSet {
		tr.Open("perfbench.workload", w.String(), time.Now())
		var g *model.Graph
		if err := timed("model.build", func() (err error) {
			g, err = model.BuildClustered(w.Model)
			return err
		}); err != nil {
			return calls, err
		}
		pl, pr := planner.New(), profiler.New(eng, ct)
		jp := &profiler.JobProfile{Workload: w, Estimates: map[core.Grid]*profiler.Estimate{}, GridPlans: map[core.Grid]*planner.GridPlan{}}
		for _, grid := range core.Enumerate(w, len(g.Ops), planTypes, planMaxN) {
			var gp *planner.GridPlan
			if err := timed("planner.plan", func() (err error) {
				gp, err = pl.PlanGrid(g, grid)
				return err
			}); err != nil {
				return calls, err
			}
			calls.candidates += gp.CandidatesEvaluated
			if !gp.Feasible {
				continue
			}
			var est profiler.Estimate
			if err := timed("profiler.profile", func() (err error) {
				est, err = pr.ProfileGridPlan(g, gp)
				return err
			}); err != nil {
				return calls, err
			}
			calls.grids++
			jp.GridPlans[grid], jp.Estimates[grid] = gp, &est
		}
		for _, typ := range planTypes {
			spec := hw.MustLookup(typ)
			for n := 1; n <= planMaxN; n *= 2 {
				var e perfdb.Entry
				var full, pruned search.Outcome
				if err := timed("exec.evaluate", func() error {
					r, err := cache.Evaluate(g, parallel.PureDP(g, n), spec, w.GlobalBatch, spec.GPUsPerNode)
					if r.Fits {
						e.DPThr = r.Throughput
					}
					return err
				}); err != nil {
					return calls, err
				}
				if err := timed("search.full", func() (err error) {
					full, err = search.FullSearchCtx(ctx, eng, g, spec, w.GlobalBatch, n, opts)
					return err
				}); err != nil {
					return calls, err
				}
				calls.searches++
				if full.Feasible() {
					e.APThr = full.Result.Throughput
				}
				if grid, ok := jp.BestGrid(core.Resource{GPUType: typ, N: n}); ok {
					err := timed("search.pruned", func() (err error) {
						pruned, err = search.PrunedSearchCtx(ctx, eng, g, spec, w.GlobalBatch, n, jp.GridPlans[grid], opts)
						return err
					})
					calls.searches++
					if err == nil && pruned.Feasible() {
						e.ArenaActualThr = pruned.Result.Throughput
					}
				}
				if got, ok := db.Entry(w, typ, n); !ok || got.DPThr != e.DPThr || got.APThr != e.APThr || got.ArenaActualThr != e.ArenaActualThr {
					mismatches++
				}
			}
		}
		tr.Close(time.Now())
	}
	rep.detail["layer_replay_mismatches"] = mismatches
	return calls, nil
}
