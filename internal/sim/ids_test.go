package sim

import (
	"errors"
	"testing"

	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/sched/policy"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// scriptJob is a long-running trace job that stays alive across the
// handful of rounds these tests fire.
func scriptJob(t *testing.T, id string, submit float64) trace.Job {
	t.Helper()
	return trace.Job{
		ID: id, Workload: testJobs(t, 1)[0].Workload,
		Iterations: 1_000_000, ReqGPUs: 2, ReqType: "A40", Priority: 1,
		SubmitTime: submit,
	}
}

func scriptEngine(t *testing.T, p *scriptPolicy) *Engine {
	t.Helper()
	p.thr = 1
	e, err := NewEngine(Config{
		Spec: hw.ClusterA(), Policy: p, DB: db(t), RoundSeconds: 300, MaxRounds: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestApplyResolvesIDs pins how apply resolves the ids an assignment
// names: only admitted live jobs (queued or running) are ever acted on.
// Unknown ids, pending jobs that are not yet admitted (they carry
// StateQueued too), and jobs retired earlier in the same round are all
// ignored, and a rescale in Place supersedes a Migrate of the same job.
func TestApplyResolvesIDs(t *testing.T) {
	a40 := func(n int) sched.Alloc { return sched.Alloc{GPUType: "A40", N: n} }
	p := &scriptPolicy{script: map[int]sched.Assignment{
		// Round 1: a launches; b is dropped, so its Place entry names a
		// job retired earlier in the same round; c is queued, so Migrate
		// (running jobs only) and a repeated Drop of b leave it alone.
		0: {
			Place:   map[string]sched.Alloc{"a": a40(2), "b": a40(2), "far": a40(2), "ghost": a40(2)},
			Drop:    []string{"b", "far", "ghost", "b"},
			Migrate: []string{"ghost", "far", "c"},
		},
		// Round 2: a is named in both Migrate and Place — the rescale
		// wins; b (dropped last round) is named again and stays dropped.
		1: {
			Place:   map[string]sched.Alloc{"a": a40(4), "b": a40(2), "far": a40(2)},
			Migrate: []string{"a", "b", "far"},
		},
		// Round 3: a alone in Migrate does migrate.
		2: {Place: map[string]sched.Alloc{}, Migrate: []string{"a"}},
	}}
	e := scriptEngine(t, p)
	for _, id := range []string{"a", "b", "c"} {
		e.Submit(scriptJob(t, id, 10), 0)
	}
	far := e.Submit(scriptJob(t, "far", 1e6), 0)

	e.Round(300)
	a, b, c := e.Find("a"), e.Find("b"), e.Find("c")
	if a.State != sched.StateRunning || a.Alloc != a40(2) {
		t.Fatalf("round 1: a state %s alloc %+v, want running on A40x2", a.State, a.Alloc)
	}
	if b.State != sched.StateDropped || b.LaunchedAt >= 0 || b.FinishedAt != 300 {
		t.Fatalf("round 1: b state %s launched %v finished %v, want dropped at 300 and never launched",
			b.State, b.LaunchedAt, b.FinishedAt)
	}
	if c.State != sched.StateQueued || c.LaunchedAt >= 0 {
		t.Fatalf("round 1: c state %s launched %v, want still queued", c.State, c.LaunchedAt)
	}
	if far.State != sched.StateQueued || far.LaunchedAt >= 0 || e.Find("far") != far {
		t.Fatalf("round 1: pending far state %s launched %v, want untouched", far.State, far.LaunchedAt)
	}
	if e.Find("ghost") != nil {
		t.Fatal("round 1: an unknown id materialized a job")
	}
	st := e.Stats()
	if st.Pending != 1 || st.Queued != 1 || st.Running != 1 || st.Dropped != 1 {
		t.Fatalf("round 1 stats %+v, want pending 1 queued 1 running 1 dropped 1", st)
	}

	e.Round(600)
	if a.Alloc != a40(4) || a.Resched != 1 || a.Migrations != 0 {
		t.Fatalf("round 2: a alloc %+v resched %d migrations %d, want the rescale to A40x4 to supersede the migration",
			a.Alloc, a.Resched, a.Migrations)
	}
	if b.State != sched.StateDropped || b.LaunchedAt >= 0 {
		t.Fatalf("round 2: dropped b revived (state %s launched %v)", b.State, b.LaunchedAt)
	}
	if far.State != sched.StateQueued || far.LaunchedAt >= 0 {
		t.Fatalf("round 2: pending far state %s launched %v, want untouched", far.State, far.LaunchedAt)
	}

	e.Round(900)
	if a.Migrations != 1 || a.Alloc != a40(4) {
		t.Fatalf("round 3: a migrations %d alloc %+v, want one same-shape migration", a.Migrations, a.Alloc)
	}
	for i, ids := range p.seen {
		for _, id := range ids {
			if id == "far" {
				t.Errorf("round %d: the policy saw pending job far as queued", i+1)
			}
		}
	}
}

func TestNewEngineRejectsDuplicateJobs(t *testing.T) {
	jobs := testJobs(t, 4)
	jobs[3].ID = jobs[1].ID
	_, err := NewEngine(Config{
		Spec: hw.ClusterA(), Policy: policy.NewFCFS(), DB: db(t), Jobs: jobs,
	})
	if !errors.Is(err, ErrDuplicateJob) {
		t.Fatalf("duplicate Config.Jobs id: err %v, want ErrDuplicateJob", err)
	}
}

// TestSubmitDropsLiveDuplicate: a submission reusing the id of a
// pending, queued or running job is retired as Dropped at staging and
// leaves the live job untouched; reusing a retired job's id is allowed.
func TestSubmitDropsLiveDuplicate(t *testing.T) {
	p := &scriptPolicy{script: map[int]sched.Assignment{
		0: {Place: map[string]sched.Alloc{"run": {GPUType: "A40", N: 2}}, Drop: []string{"gone"}},
	}}
	e := scriptEngine(t, p)
	orig := map[string]*sched.Job{
		"run":   e.Submit(scriptJob(t, "run", 10), 0),
		"queue": e.Submit(scriptJob(t, "queue", 10), 0),
		"gone":  e.Submit(scriptJob(t, "gone", 10), 0),
		"wait":  e.Submit(scriptJob(t, "wait", 1e6), 0),
	}
	e.Round(300)
	if orig["run"].State != sched.StateRunning || orig["gone"].State != sched.StateDropped {
		t.Fatalf("setup: run %s, gone %s", orig["run"].State, orig["gone"].State)
	}

	for _, id := range []string{"run", "queue", "wait"} {
		dup := e.Submit(scriptJob(t, id, 0), 400)
		if dup == orig[id] || dup.State != sched.StateDropped || dup.FinishedAt != 400 {
			t.Errorf("duplicate of live %s: state %s finished %v, want a separate job dropped at 400",
				id, dup.State, dup.FinishedAt)
		}
		if e.Find(id) != orig[id] {
			t.Errorf("duplicate of live %s displaced the live job", id)
		}
	}
	if orig["run"].State != sched.StateRunning || orig["queue"].State != sched.StateQueued ||
		orig["wait"].State != sched.StateQueued {
		t.Errorf("live jobs disturbed: run %s queue %s wait %s",
			orig["run"].State, orig["queue"].State, orig["wait"].State)
	}
	st := e.Stats()
	if st.Pending != 1 || st.Queued != 1 || st.Running != 1 || st.Dropped != 4 {
		t.Fatalf("stats %+v, want pending 1 queued 1 running 1 dropped 4", st)
	}

	// The id of a retired job is free again.
	again := e.Submit(scriptJob(t, "gone", 0), 450)
	if again.State != sched.StateQueued {
		t.Fatalf("resubmitting a retired id: state %s, want a live job", again.State)
	}
	e.Round(600)
	if got := p.seen[len(p.seen)-1]; len(got) != 2 || got[0] != "queue" || got[1] != "gone" {
		t.Errorf("round 2 queue %v, want [queue gone]", got)
	}
}

// TestSourceDuplicateDropped: a streamed trace that repeats a live id
// drops the repeat at staging; the first job runs normally.
func TestSourceDuplicateDropped(t *testing.T) {
	jobs := testJobs(t, 6)
	jobs[3].ID, jobs[3].SubmitTime = jobs[2].ID, jobs[2].SubmitTime
	res, err := Run(Config{
		Spec: hw.ClusterA(), Policy: policy.NewFCFS(), DB: db(t),
		Source: trace.SliceSource(jobs), RoundSeconds: 300, IncludeUnfinished: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 6 || res.Dropped != 1 || res.Finished != 5 {
		t.Fatalf("total %d dropped %d finished %d, want 6/1/5", res.Total, res.Dropped, res.Finished)
	}
	for _, j := range res.Jobs {
		if j.Trace.ID == jobs[2].ID && j.State == sched.StateDropped && j.LaunchedAt >= 0 {
			t.Errorf("the dropped duplicate launched at %v", j.LaunchedAt)
		}
	}
}

// TestFindResolvesRetiredIDs pins Find's lookup order through the
// retired-job index: a retired id resolves to its terminal record; while
// a reused id is live, Find returns the live job; once every holder has
// retired, the first job retired under the id wins — including a
// duplicate that was dropped at staging before the original retired.
func TestFindResolvesRetiredIDs(t *testing.T) {
	e := scriptEngine(t, &scriptPolicy{})
	gone := e.Submit(scriptJob(t, "gone", 1e6), 0)
	if !e.Cancel("gone", 5) || e.Find("gone") != gone || gone.State != sched.StateDropped {
		t.Fatalf("retired id: Find = %p (state %s), want the cancelled job %p", e.Find("gone"), gone.State, gone)
	}

	again := e.Submit(scriptJob(t, "gone", 1e6), 10)
	if again == gone || e.Find("gone") != again {
		t.Fatalf("reused id: Find = %p, want the live resubmission %p", e.Find("gone"), again)
	}
	if !e.Cancel("gone", 20) || e.Find("gone") != gone {
		t.Fatalf("reused id after both retired: Find = %p, want the first retired job %p", e.Find("gone"), gone)
	}

	live := e.Submit(scriptJob(t, "dup", 1e6), 30)
	dup := e.Submit(scriptJob(t, "dup", 1e6), 30)
	if dup.State != sched.StateDropped || e.Find("dup") != live {
		t.Fatalf("staged duplicate: state %s, Find = %p, want dropped and the live job %p", dup.State, e.Find("dup"), live)
	}
	if !e.Cancel("dup", 40) || e.Find("dup") != dup {
		t.Fatalf("after the original retired: Find = %p, want the duplicate retired first %p", e.Find("dup"), dup)
	}
	if e.Find("never") != nil {
		t.Fatal("an unknown id resolved to a job")
	}
}
