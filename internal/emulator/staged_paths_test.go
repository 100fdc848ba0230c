package emulator

import (
	"testing"

	"tota/internal/agg"
	"tota/internal/core"
	"tota/internal/pattern"
	"tota/internal/topology"
	"tota/internal/tuple"
)

// stagedPathsRun adds the two convergecast answers to a seededRun (its
// gradient readings stay zero: the scenario has no gradient).
type stagedPathsRun struct {
	seededRun
	sumA, sumB float64
	okA, okB   bool
}

// runStagedPathsScenario drives the two staged-send paths that live
// beside the refresh loop — convergecast partials (per-query staged
// contribution maps) and the corrupt-source quarantine (per-source
// strike/cooldown maps).
// Two queries with different origins overlap, so partial staging,
// folding and flushing interleave; a corruption window quarantines
// sources mid-run and the cooldown re-admits them before the end.
func runStagedPathsScenario(seed int64) stagedPathsRun {
	const side = 6
	tracer, traces := traceLog()
	w := New(Config{
		Graph:        topology.Grid(side, side, 1),
		RefreshEvery: 2,
		Seed:         seed,
		// The E13 resilience trio: quarantine needs suspicion hysteresis
		// beside it — with immediate withdrawal (SuspicionEpochs=0) the
		// support-table desync that quarantine drops induce can lock two
		// neighbors into a perpetual withdraw/re-adopt announce storm.
		NodeOptions: []core.Option{
			core.WithSuspicion(2),
			core.WithPullBackoff(6),
			core.WithQuarantine(2, 10),
			core.WithTracer(tracer),
		},
	})
	n := side * side
	for i := 0; i < n; i++ {
		if _, err := w.Node(topology.NodeName(i)).Inject(
			pattern.NewLocal("reading", tuple.F("v", float64(i%7+1)))); err != nil {
			panic(err)
		}
	}
	w.Settle(100000)

	// Two overlapping queries from different origins: their staged
	// partials coexist in every interior node's per-query maps.
	srcA, srcB := topology.NodeName(0), topology.NodeName(n-1)
	sel := tuple.Selector{Kind: pattern.KindLocal, Name: "reading", Field: "v"}
	idA, err := w.Node(srcA).Inject(agg.NewQuery("spA", agg.Sum, sel))
	if err != nil {
		panic(err)
	}
	idB, err := w.Node(srcB).Inject(agg.NewQuery("spB", agg.Max, sel))
	if err != nil {
		panic(err)
	}
	w.Settle(100000)

	// Corruption window: heavy byte-flipping for a few epochs drives
	// sources over the 2-strike threshold into quarantine; the refresh
	// traffic that follows burns down the 10-packet cooldowns and
	// re-admits them, all through the per-source staged maps.
	w.Sim().SetCorrupt(0.5)
	for i := 0; i < 4; i++ {
		w.RefreshAll()
		w.Settle(100000)
	}
	w.Sim().SetCorrupt(0)
	// Healing needs one epoch per aggregation-tree level plus the
	// suspicion/backoff recovery tail (E14 sizes epochs the same way).
	for i := 0; i < 2*side+6; i++ {
		w.RefreshAll()
		w.Settle(100000)
	}

	out := stagedPathsRun{seededRun: seededRun{
		fingerprint: fingerprint(w),
		nodeStats:   w.TotalStats(),
		simStats:    w.Sim().Stats(),
		traces:      traces,
	}}
	var ra, rb agg.Result
	ra, out.okA = w.Node(srcA).AggResult(idA)
	rb, out.okB = w.Node(srcB).AggResult(idB)
	out.sumA, out.sumB = ra.Value(), rb.Value()
	return out
}

// TestStagedSendPathsDeterministic pins the determinism of the two
// auxiliary staged-send paths: aggregation partials and quarantine
// cooldown. Their per-node state lives in maps, so any map-order
// iteration feeding the wire would show up here as a fingerprint,
// counter or trace mismatch between two runs of the same seed.
func TestStagedSendPathsDeterministic(t *testing.T) {
	first := runStagedPathsScenario(77)
	if first.nodeStats.QuarantineEvents == 0 {
		t.Fatal("no source was ever quarantined; cooldown path untested")
	}
	if first.nodeStats.PartialsOut == 0 {
		t.Fatal("no partials sent; aggregation staging untested")
	}
	if !first.okA || !first.okB {
		t.Fatalf("missing aggregation results: okA=%v okB=%v", first.okA, first.okB)
	}
	// The oracle values: sum and max of i%7+1 over the 36 readings.
	wantSum, wantMax := 0.0, 0.0
	for i := 0; i < 36; i++ {
		v := float64(i%7 + 1)
		wantSum += v
		if v > wantMax {
			wantMax = v
		}
	}
	if first.sumA != wantSum || first.sumB != wantMax {
		t.Errorf("aggregation drifted after quarantine churn: sum=%v (want %v) max=%v (want %v)",
			first.sumA, wantSum, first.sumB, wantMax)
	}
	again := runStagedPathsScenario(77)
	diffRuns(t, "staged paths", first.seededRun, again.seededRun)
	if again.sumA != first.sumA || again.sumB != first.sumB || again.okA != first.okA || again.okB != first.okB {
		t.Errorf("aggregation results diverged: got (%v,%v) want (%v,%v)",
			again.sumA, again.sumB, first.sumA, first.sumB)
	}
}
