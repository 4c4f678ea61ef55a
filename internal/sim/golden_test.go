package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/sjtu-epcc/arena/internal/faults"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/sched/policy"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// The golden digests pin the engine's observable behaviour against
// recorded values rather than against a second implementation: the
// rescan/incremental score parity pairs both run through the same
// apply/admit/retire code and the one event-heap core, so a change there
// moves both sides of every parity test together. Every fixture's
// digests were recorded while the retired linear-scan core still
// existed, and both cores reproduced them; the fixtures cover every
// input its parity tests ran (five policies × slice/stream × faults,
// the cluster-wide outage, the truncated 10k stream). Regenerate (only
// for an intended behaviour change, stated in CHANGES.md) with
//
//	go test ./internal/sim -run TestGoldenDigests -update

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_digests.json from the current engine")

const goldenPath = "testdata/golden_digests.json"

// goldenRun is one fixture's recorded fingerprint.
type goldenRun struct {
	// Rounds holds the per-round Assignment digests, in the same form
	// the server journals (jsonDigest: sha256 of the JSON encoding,
	// truncated hex).
	Rounds []string `json:"rounds"`
	// Summary is the digest of the run's metrics.Summary and horizon.
	Summary string `json:"summary"`
	// Jobs is the digest of every job's end state (non-streaming runs).
	Jobs string `json:"jobs,omitempty"`
}

// goldenDigest mirrors the server's jsonDigest.
func goldenDigest(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])[:16]
}

// recordingPolicy digests every assignment the wrapped policy returns.
type recordingPolicy struct {
	sched.Policy
	t      *testing.T
	rounds []string
}

func (p *recordingPolicy) Assign(ctx *sched.Context) sched.Assignment {
	asg := p.Policy.Assign(ctx)
	p.rounds = append(p.rounds, goldenDigest(p.t, asg))
	return asg
}

// goldenJobState is the per-job end state a golden run pins.
type goldenJobState struct {
	ID                                string
	State                             sched.JobState
	SubmittedAt, LaunchedAt           float64
	FinishedAt, Remaining             float64
	Alloc                             sched.Alloc
	Resched, Preemptions, Restarts    int
	Migrations                        int
	CheckpointRemaining, NextEligible float64
}

func runGolden(t *testing.T, cfg Config) (goldenRun, *Result) {
	t.Helper()
	rec := &recordingPolicy{Policy: cfg.Policy, t: t}
	cfg.Policy = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := goldenRun{
		Rounds:  rec.rounds,
		Summary: goldenDigest(t, struct{ Summary, Horizon any }{res.Summary, res.Horizon}),
	}
	if res.Jobs != nil {
		states := make([]goldenJobState, len(res.Jobs))
		for i, j := range res.Jobs {
			states[i] = goldenJobState{
				ID: j.Trace.ID, State: j.State,
				SubmittedAt: j.SubmittedAt, LaunchedAt: j.LaunchedAt,
				FinishedAt: j.FinishedAt, Remaining: j.RemainingSamples,
				Alloc: j.Alloc, Resched: j.Resched, Preemptions: j.Preemptions,
				Restarts: j.Restarts, Migrations: j.Migrations,
				CheckpointRemaining: j.CheckpointRemaining, NextEligible: j.NextEligibleAt,
			}
		}
		g.Jobs = goldenDigest(t, states)
	}
	return g, res
}

// goldenBenchSpec is the 2048-GPU cluster of the streaming benchmarks.
func goldenBenchSpec() hw.ClusterSpec {
	return hw.ClusterSpec{
		Name: "bench-xl",
		Regions: []hw.Region{
			{GPUType: "A40", Nodes: 512},
			{GPUType: "A10", Nodes: 512},
		},
	}
}

// stragglerStormFaults scripts a fault storm on Cluster A on top of the
// random fault model: long slow episodes on a third of each region's
// nodes (Arena migrates off them), then a crash wave over half of the
// nodes with staggered recoveries, so preemptions, checkpoint restarts,
// straggler refreshes and migrations all interleave.
func stragglerStormFaults(t *testing.T) *faults.Config {
	t.Helper()
	var sb strings.Builder
	for _, typ := range []string{"A40", "A10"} {
		for node := 0; node < 5; node++ {
			fmt.Fprintf(&sb, "%d slow %s %d 0.3 20000\n", 1500+200*node, typ, node)
		}
		for node := 0; node < 8; node++ {
			fmt.Fprintf(&sb, "%d crash %s %d\n%d recover %s %d\n",
				7000+100*node, typ, node, 9000+300*node, typ, node)
		}
	}
	storm, err := faults.ParseTrace(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	fc := parityFaults()
	fc.Trace = storm
	return fc
}

// goldenFixtures builds every pinned scenario. Each call returns fresh
// configs (policies carry state; sources are single-use).
func goldenFixtures(t *testing.T) map[string]func() Config {
	t.Helper()
	fx := map[string]func() Config{
		"helios-day-5k/arena": func() Config {
			cfg := trace.HeliosDay(7, []string{"A40", "A10"}, 5000)
			cfg.Workloads = []model.Workload{
				{Model: "WRes-1B", GlobalBatch: 256},
				{Model: "GPT-1.3B", GlobalBatch: 128},
				{Model: "GPT-2.6B", GlobalBatch: 128},
			}
			src, err := trace.Stream(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return Config{
				Spec: goldenBenchSpec(), Policy: sched.NewArena(), Source: src,
				Streaming: true, DB: db(t), RoundSeconds: 300,
				IncludeUnfinished: true, Seed: 1,
			}
		},
		"storm/arena": func() Config {
			return Config{
				Spec: hw.ClusterA(), Policy: sched.NewArena(), Jobs: testJobs(t, 60),
				DB: db(t), RoundSeconds: 300, MaxRounds: 400,
				IncludeUnfinished: true, Seed: 1, Faults: stragglerStormFaults(t),
			}
		},
		"deadline/arena-ddl": func() Config {
			// Every third job gets a deadline no allocation can meet, so
			// the deadline objective drops it from the queue.
			jobs := testJobs(t, 40)
			for i := range jobs {
				jobs[i].Deadline = 48 * 3600
				if i%3 == 0 {
					jobs[i].Deadline = 600
				}
			}
			p := sched.NewArena()
			p.Objective = sched.ObjDeadline
			return Config{
				Spec: hw.ClusterA(), Policy: p, Jobs: jobs, DB: db(t),
				RoundSeconds: 300, IncludeUnfinished: true, Seed: 1,
			}
		},
	}
	for name, mk := range parityPolicies() {
		mk := mk
		fx["small/"+name] = func() Config {
			return Config{
				Spec: hw.ClusterA(), Policy: mk(), Jobs: testJobs(t, 40), DB: db(t),
				RoundSeconds: 300, IncludeUnfinished: true, Seed: 1,
			}
		}
		// The 40-job slice under the random fault model, and a streamed
		// philly-6h source with and without it: streamed arrivals are
		// pulled on demand instead of pre-staged, a separate engine path.
		fx["faults/"+name] = func() Config {
			return Config{
				Spec: hw.ClusterA(), Policy: mk(), Jobs: testJobs(t, 40), DB: db(t),
				RoundSeconds: 300, MaxRounds: 400, IncludeUnfinished: true, Seed: 1,
				Faults: parityFaults(),
			}
		}
		fx["stream/"+name] = func() Config {
			return Config{
				Spec: hw.ClusterA(), Policy: mk(), Source: phillyStream(t), DB: db(t),
				RoundSeconds: 300, MaxRounds: 400, IncludeUnfinished: true, Seed: 1,
			}
		}
		fx["stream-faults/"+name] = func() Config {
			return Config{
				Spec: hw.ClusterA(), Policy: mk(), Source: phillyStream(t), DB: db(t),
				RoundSeconds: 300, MaxRounds: 400, IncludeUnfinished: true, Seed: 1,
				Faults: parityFaults(),
			}
		}
	}
	// A cluster-wide outage preempts every running job at one instant:
	// the worst case for same-instant event ordering (many crashes,
	// completions and requeues at one time point).
	for _, name := range []string{"fcfs", "arena"} {
		mk := parityPolicies()[name]
		fx["outage/"+name] = func() Config {
			return Config{
				Spec: hw.ClusterA(), Policy: mk(), Jobs: longJobs(24), DB: db(t),
				RoundSeconds: 300, MaxRounds: 300, IncludeUnfinished: true, Seed: 1,
				Faults: &faults.Config{Trace: stormTrace(t), CheckpointInterval: 600},
			}
		}
	}
	// A 10k-job streamed synthetic trace truncated by MaxRounds, so the
	// source is only partially drained at the horizon.
	fx["helios-10k/fcfs"] = func() Config {
		src, err := trace.Stream(trace.HeliosDay(11, []string{"A40", "A10"}, 10000))
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			Spec: hw.ClusterA(), Policy: policy.NewFCFS(), Source: src, DB: db(t),
			RoundSeconds: 300, MaxRounds: 400, IncludeUnfinished: true, Seed: 1,
		}
	}
	return fx
}

func TestGoldenDigests(t *testing.T) {
	want := map[string]goldenRun{}
	if !*updateGolden {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]goldenRun{}
	for name, mk := range goldenFixtures(t) {
		g, res := runGolden(t, mk())
		got[name] = g
		switch name {
		case "storm/arena":
			// Fixture sanity: the storm must exercise every fault path.
			migrations := 0
			for _, j := range res.Jobs {
				migrations += j.Migrations
			}
			if res.Preemptions == 0 || res.Restarts == 0 || migrations == 0 {
				t.Errorf("%s: storm exercised preemptions=%d restarts=%d migrations=%d; want all > 0",
					name, res.Preemptions, res.Restarts, migrations)
			}
		case "deadline/arena-ddl":
			if res.Dropped == 0 {
				t.Errorf("%s: no job dropped; the fixture must exercise Assignment.Drop", name)
			}
		case "helios-10k/fcfs":
			if res.Total < 5000 {
				t.Errorf("%s: saw only %d jobs inside the horizon; want >= 5000", name, res.Total)
			}
		}
		if *updateGolden {
			continue
		}
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden recorded", name)
			continue
		}
		if len(g.Rounds) != len(w.Rounds) {
			t.Errorf("%s: %d rounds, golden has %d", name, len(g.Rounds), len(w.Rounds))
		}
		for i := 0; i < len(g.Rounds) && i < len(w.Rounds); i++ {
			if g.Rounds[i] != w.Rounds[i] {
				t.Errorf("%s: round %d assignment digest %s, golden %s (first divergence)",
					name, i, g.Rounds[i], w.Rounds[i])
				break
			}
		}
		if g.Summary != w.Summary {
			t.Errorf("%s: summary digest %s, golden %s", name, g.Summary, w.Summary)
		}
		if g.Jobs != w.Jobs {
			t.Errorf("%s: job-state digest %s, golden %s", name, g.Jobs, w.Jobs)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("golden %s has no fixture", name)
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
