package main

import (
	"math"
	"testing"
)

// TestDaemonRequestsAreServable checks the generated schedule against
// what the server and the round barrier need: requests sorted by due
// time, every submit due where its simulated submission time falls on
// the compressed timeline, queries and cancels after the submit they
// name, cancels only of jobs still pending when they apply, and every
// submit and cancel awaited before the round that first sees it.
func TestDaemonRequestsAreServable(t *testing.T) {
	for _, seed := range []uint64{1, 2, 9001} {
		sch, err := daemonRequests(seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(sch.jobs) != submitsPerPass {
			t.Fatalf("seed %d: %d jobs, want %d", seed, len(sch.jobs), submitsPerPass)
		}
		awaited := map[int]int{}
		for k, idx := range sch.waitFor {
			for _, i := range idx {
				awaited[i] = k
			}
		}
		kinds := map[string]int{}
		cancelled := map[int]bool{}
		for i, q := range sch.plan {
			kinds[q.kind]++
			if i > 0 && q.due < sch.plan[i-1].due {
				t.Fatalf("seed %d: request %d due before request %d", seed, i, i-1)
			}
			if q.round < 1 || q.round > loadRounds {
				t.Fatalf("seed %d: request %d first seen by round %d", seed, i, q.round)
			}
			switch q.kind {
			case "submit":
				sim := sch.jobs[q.job].SubmitTime
				if got := int(math.Ceil(sim / roundSimSeconds)); got != q.round {
					t.Errorf("seed %d: submit %d at simulated %gs has round %d, want %d", seed, i, sim, q.round, got)
				}
				if d := q.due.Seconds() - sim*roundEvery.Seconds()/roundSimSeconds; math.Abs(d) > 1e-6 {
					t.Errorf("seed %d: submit %d due %v, off the compressed timeline by %gs", seed, i, q.due, d)
				}
			case "query", "cancel":
				s := q.after
				if s < 0 || s >= i || sch.plan[s].kind != "submit" || sch.plan[s].job != q.job {
					t.Fatalf("seed %d: %s %d does not follow the submit of job %d", seed, q.kind, i, q.job)
				}
				if q.kind == "cancel" {
					if sch.plan[s].round != q.round || cancelled[q.job] {
						t.Errorf("seed %d: cancel %d targets job %d, not pending in round %d", seed, i, q.job, q.round)
					}
					cancelled[q.job] = true
				}
			}
			if k, ok := awaited[i]; (q.kind == "submit" || q.kind == "cancel") != ok || (ok && k != q.round) {
				t.Errorf("seed %d: %s %d awaited before round %d (awaited=%v), first seen by round %d", seed, q.kind, i, k, ok, q.round)
			}
		}
		for _, kind := range []string{"submit", "query", "stats", "cancel"} {
			if kinds[kind] == 0 {
				t.Errorf("seed %d: no %s requests", seed, kind)
			}
		}
	}
}
