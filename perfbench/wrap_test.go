package main

import (
	"reflect"
	"testing"

	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/sim"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// observerCases are small versions of the simulator workloads: a backlog
// that outgrows the cluster, and a churning cluster with crashes,
// stragglers and checkpoints.
func observerCases() map[string]simSpec {
	deep := simDeep
	deep.cluster = hw.ClusterA()
	deep.trace = func(seed uint64) trace.Config {
		cfg := trace.HeliosDay(seed, []string{"A40", "A10"}, 1500)
		cfg.Workloads = simWorkloads
		return cfg
	}
	churn := simFaults
	churn.trace = func(seed uint64) trace.Config {
		cfg := simFaults.trace(seed)
		cfg.Duration, cfg.NumJobs = 3*24*3600, 600
		return cfg
	}
	return map[string]simSpec{"deep": deep, "faults": churn}
}

func testDB(t *testing.T) *perfdb.DB {
	t.Helper()
	db, err := buildSimDB()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// engineRun drives an engine round by round and fingerprints every
// decision Round returns, observed or not.
func engineRun(t *testing.T, s simSpec, db *perfdb.DB, observe bool) ([]uint64, *sim.Result, *observedPolicy) {
	t.Helper()
	gen, err := trace.Stream(s.trace(7))
	if err != nil {
		t.Fatal(err)
	}
	var pol sched.Policy = sched.NewArena()
	var src trace.Source = gen
	var obs *observedPolicy
	if observe {
		tr := NewTracer()
		obs = observePolicy(pol, tr)
		pol = obs
		src, _ = observeSource(gen, tr)
	}
	e, err := sim.NewEngine(sim.Config{
		Spec: s.cluster, Policy: pol, Source: src, Streaming: true, DB: db,
		RoundSeconds: 300, IncludeUnfinished: true, Seed: 7, Faults: s.faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	var digests []uint64
	const rounds = 400
	for k := 0; k < rounds; k++ {
		digests = append(digests, digestAssignment(e.Round(float64(k)*300)))
	}
	return digests, e.Finish(rounds * 300), obs
}

// TestObserversNeverChangeDecisions proves the observing wrappers
// transparent: with and without them, every round decides the same and
// the run reports the same summary.
func TestObserversNeverChangeDecisions(t *testing.T) {
	db := testDB(t)
	for name, s := range observerCases() {
		t.Run(name, func(t *testing.T) {
			plain, plainRes, _ := engineRun(t, s, db, false)
			seen, seenRes, obs := engineRun(t, s, db, true)
			if !reflect.DeepEqual(plain, seen) {
				t.Fatalf("round digests differ with observers on")
			}
			if !reflect.DeepEqual(plain, obs.digests) {
				t.Fatalf("the observer recorded other decisions than the engine returned")
			}
			if !reflect.DeepEqual(plainRes, seenRes) {
				t.Fatalf("summary differs with observers on: %s vs %s", summaryDigest(plainRes), summaryDigest(seenRes))
			}
			if plainRes.Finished == 0 {
				t.Fatal("no job finished; the case exercises nothing")
			}
		})
	}
}

// TestTimedRunMatchesPlainRun proves the same for a whole simulation
// driven by sim.Run, with the round timer on the clock and progress hooks
// and the policy and source observed.
func TestTimedRunMatchesPlainRun(t *testing.T) {
	db := testDB(t)
	for name, s := range observerCases() {
		t.Run(name, func(t *testing.T) {
			gen, err := trace.Stream(s.trace(3))
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.Config{
				Spec: s.cluster, Policy: sched.NewArena(), Source: gen, Streaming: true,
				DB: db, RoundSeconds: 300, IncludeUnfinished: true, Seed: 3, Faults: s.faults,
			}
			plain, err := sim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fx := &simFixture{db: db, cfg: s.trace(3)}
			p, err := s.pass(fx, 3, NewTracer())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, p.res) {
				t.Fatalf("timed run differs: %s vs %s", summaryDigest(plain), summaryDigest(p.res))
			}
			if p.rounds.Len() != len(p.pol.digests) {
				t.Fatalf("timed %d rounds, policy saw %d", p.rounds.Len(), len(p.pol.digests))
			}
		})
	}
}

// TestObservedPolicyKeepsReferenceToggle checks the wrapper forwards the
// engine's scoring-path switch to the policy it wraps.
func TestObservedPolicyKeepsReferenceToggle(t *testing.T) {
	inner := &toggle{Policy: sched.NewArena()}
	e, err := sim.NewEngine(sim.Config{
		Spec: hw.ClusterA(), Policy: observePolicy(inner, nil), DB: testDB(t), ReferenceScore: true,
	})
	if err != nil || e == nil {
		t.Fatal(err)
	}
	if !inner.on {
		t.Fatal("ReferenceScore did not reach the wrapped policy")
	}
}

type toggle struct {
	sched.Policy
	on bool
}

func (p *toggle) SetReferenceScore(on bool) { p.on = on }

// TestDigestIgnoresMapOrder checks an assignment's fingerprint depends on
// its content only.
func TestDigestIgnoresMapOrder(t *testing.T) {
	a := sched.NewAssignment()
	b := sched.NewAssignment()
	ids := []string{"j1", "j2", "j3", "j4", "j5"}
	for i, id := range ids {
		a.Place[id] = sched.Alloc{GPUType: "A40", N: i + 1}
	}
	for i := len(ids) - 1; i >= 0; i-- {
		b.Place[ids[i]] = sched.Alloc{GPUType: "A40", N: i + 1}
	}
	if digestAssignment(a) != digestAssignment(b) {
		t.Fatal("equal assignments digest differently")
	}
	b.Place["j1"] = sched.Alloc{GPUType: "A10", N: 1}
	if digestAssignment(a) == digestAssignment(b) {
		t.Fatal("different assignments digest equal")
	}
	c := sched.NewAssignment()
	c.Migrate = []string{"j1"}
	if digestAssignment(c) == digestAssignment(sched.NewAssignment()) {
		t.Fatal("a migration does not change the digest")
	}
}
