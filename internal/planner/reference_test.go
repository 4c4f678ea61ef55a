package planner

import (
	"math"
	"sort"

	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
)

// The planner's parity oracle. PlanGrid runs one enumerator (the prefix
// DP, dp.go) into one Pareto reduction (the incremental sweep,
// frontier.go); this file keeps a from-scratch alternative for each, so
// the parity tests can compare production against every other
// enumerator × reduction combination. Nothing here is reachable from
// production code.

// enumerateExhaustive is the brute-force reference enumerator: it visits
// every partition in lexicographic order and rebuilds its fractional
// shares and power-of-two assignment from scratch. It offers the sink
// the same candidates, ranks and partition count as enumerateDP, in a
// different arrival order.
func enumerateExhaustive(gp *gridPass, sink candidateSink) int {
	grid := gp.grid
	evaluated := 0
	scr := newCandScratch(grid.S, grid.N)
	forEachPartition(len(gp.g.Ops), grid.S, func(rank int, bounds []int) {
		evaluated++
		start := 0
		for j, end := range bounds {
			scr.ideal[j] = gp.stats.loadOf(start, end) / gp.totalLoad * float64(grid.N)
			scr.opsPer[j] = end - start
			start = end
		}
		if assign, bias2 := normalizeAssignment(scr.ideal, grid.N, scr); assign != nil {
			sink.offer(bounds, assign, scr.opsPer, scr.ideal, bias2, rank)
		}
	})
	return evaluated
}

// paretoFrontier returns the non-dominated candidates under simultaneous
// minimization of (BComp, LComm): a plan is kept iff no other plan is at
// least as good on both metrics and strictly better on one (§3.3). It is
// the post-hoc reference the incremental sweep (frontier.go) is proven
// against.
//
// Exact (BComp, LComm) ties keep the candidate at the lowest input
// position — the lexicographic partition rank, since the population sink
// presents candidates in that order whichever enumerator fed it. The position tie-break is explicit
// in the comparator: an earlier revision sorted on the metrics alone,
// which let sort.Slice's unstable pdqsort pick the surviving duplicate —
// deterministic for a fixed Go release but an artifact of the sort
// algorithm, observed to keep non-first members in two thirds of the
// tie-heavy matrix's frontier tie groups. The rank rule makes the
// reference a pure function of the candidate population and is what the
// incremental sweep reproduces order-independently.
func paretoFrontier(cands []*Candidate) []*Candidate {
	// Sort by BComp ascending, LComm ascending, input position ascending
	// (a total order, so sort instability cannot matter); then sweep: a
	// candidate is on the frontier iff its LComm is strictly below every
	// previously kept LComm (classic 2-D skyline).
	pos := make(map[*Candidate]int, len(cands))
	for i, c := range cands {
		pos[c] = i
	}
	sorted := append([]*Candidate(nil), cands...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].BComp != sorted[j].BComp {
			return sorted[i].BComp < sorted[j].BComp
		}
		if sorted[i].LComm != sorted[j].LComm {
			return sorted[i].LComm < sorted[j].LComm
		}
		return pos[sorted[i]] < pos[sorted[j]]
	})
	var frontier []*Candidate
	bestLComm := math.MaxFloat64
	for _, c := range sorted {
		if c.LComm < bestLComm {
			frontier = append(frontier, c)
			bestLComm = c.LComm
		}
	}
	return frontier
}

// detachCandidate deep-copies a candidate onto its own heap objects,
// preserving every value bit. Proxy selection runs after detachment, so
// the proxy remains a member of the returned frontier.
func detachCandidate(c *Candidate) *Candidate {
	return &Candidate{
		Plan: &parallel.Plan{
			Stages:          append([]parallel.StagePlan(nil), c.Plan.Stages...),
			NumMicrobatches: c.Plan.NumMicrobatches,
		},
		BComp:        c.BComp,
		LComm:        c.LComm,
		OpsPerStage:  append([]int(nil), c.OpsPerStage...),
		GPUsPerStage: append([]int(nil), c.GPUsPerStage...),
		IdealAssign:  append([]float64(nil), c.IdealAssign...),
	}
}

// referencePlanGrid is PlanGrid through any enumerator × reduction
// combination: exhaustive swaps enumerateDP for enumerateExhaustive, and
// sorted swaps the incremental sweep for materializing the whole
// population and reducing it post hoc with paretoFrontier. Every
// combination finishes through the production finishGrid
// (reduceFrontier, then selectProxy).
func referencePlanGrid(pl *Planner, g *model.Graph, grid core.Grid, exhaustive, sorted bool) (*GridPlan, error) {
	gp, err := newGridPass(g, grid)
	if err != nil {
		return nil, err
	}
	enumerate := enumerateDP
	if exhaustive {
		enumerate = enumerateExhaustive
	}
	if !sorted {
		sink := newSweepFrontier(grid.S, gp.intra, gp.numMicro)
		evaluated := enumerate(gp, sink)
		return pl.finishGrid(grid, evaluated, sink.candidates()), nil
	}
	// Survivors are detached so the returned frontier does not pin the
	// population sink's arena.
	sink := newPopulationSink(g, grid, gp.intra, gp.numMicro)
	evaluated := enumerate(gp, sink)
	frontier := paretoFrontier(sink.candidates())
	for i, c := range frontier {
		frontier[i] = detachCandidate(c)
	}
	return pl.finishGrid(grid, evaluated, frontier), nil
}

// exhaustiveCandidates is EnumerateCandidates through the brute-force
// enumerator.
func exhaustiveCandidates(g *model.Graph, grid core.Grid) []*Candidate {
	gp, err := newGridPass(g, grid)
	if err != nil {
		return nil
	}
	sink := newPopulationSink(g, grid, gp.intra, gp.numMicro)
	enumerateExhaustive(gp, sink)
	return sink.candidates()
}
