package experiment

import (
	"fmt"
	"math"

	"tota/internal/agg"
	"tota/internal/core"
	"tota/internal/emulator"
	"tota/internal/fault"
	"tota/internal/metrics"
	"tota/internal/pattern"
	"tota/internal/topology"
	"tota/internal/tuple"
)

// e14ReadingSel selects the per-node sensor readings E14 aggregates.
var e14ReadingSel = tuple.Selector{Kind: pattern.KindLocal, Name: "reading", Field: "v"}

// e14Reading is the deterministic reading of node i: integer-valued so
// floating-point sums are exact and the convergecast result can be
// compared bit-for-bit against the oracle.
func e14Reading(i int) float64 { return float64(i%17 + 1) }

// e14World builds a side×side grid, stores one local reading per node
// and settles.
func e14World(side int, opts ...core.Option) *emulator.World {
	w := emulator.New(emulator.Config{
		Graph:        topology.Grid(side, side, 1),
		RefreshEvery: 2,
		Seed:         1404,
		NodeOptions:  opts,
	})
	for i := 0; i < side*side; i++ {
		if _, err := w.Node(topology.NodeName(i)).Inject(pattern.NewLocal("reading", tuple.F("v", e14Reading(i)))); err != nil {
			return nil
		}
	}
	w.Settle(settleBudget)
	return w
}

// e14Run injects q at the corner source, then drives epochs anti-entropy
// epochs (refresh + radio quiescence) and returns the source's final
// result. The radio stats are reset after the query flood settles, so
// the caller's message counts isolate the steady aggregation traffic.
func e14Run(w *emulator.World, q *agg.Query, epochs int) (agg.Result, bool) {
	src := topology.NodeName(0)
	id, err := w.Node(src).Inject(q)
	if err != nil {
		return agg.Result{}, false
	}
	w.Settle(settleBudget)
	w.Sim().ResetStats()
	for i := 0; i < epochs; i++ {
		w.RefreshAll()
		w.Settle(settleBudget)
	}
	return w.Node(src).AggResult(id)
}

// RunE14 evaluates the in-network aggregation engine (internal/agg): an
// epoch-based convergecast over the query tuple's own gradient field,
// against the naive alternative of collecting every matching reading at
// the source. It reports (a) the asymptotic message advantage — one
// combined partial per node per epoch versus O(n·tuples) forwarded
// records — (b) exactness of the combined aggregates, (c) convergence
// back to the exact oracle after a crash plus 30% loss window during an
// epoch, and (d) bit-identical results across two same-seed runs.
func RunE14(scale Scale) *Result {
	sides := []int{4, 6}
	if scale == Full {
		sides = []int{4, 6, 8}
	}

	tbl := metrics.NewTable(
		"E14 (aggregation): epoch convergecast vs collect-all — exactness and message cost",
		"mode", "nodes", "epochs", "sum", "exact", "partials", "partials/node/epoch", "radioMsgs")
	res := newResult(tbl)

	// Part 1: message-cost sweep. Both modes compute the same exact sum;
	// combining sends at most one partial per non-source node per epoch
	// while collect-all forwards every origin record at every hop.
	for _, side := range sides {
		n := side * side
		oracle := 0.0
		for i := 0; i < n; i++ {
			oracle += e14Reading(i)
		}
		epochs := 2*side + 4
		for _, collect := range []bool{false, true} {
			w := e14World(side)
			if w == nil {
				continue
			}
			q := agg.NewQuery("e14", agg.Sum, e14ReadingSel)
			mode := "combine"
			if collect {
				q = q.CollectAll()
				mode = "collect"
			}
			r, ok := e14Run(w, q, epochs)
			exact := 0.0
			if ok && r.Value() == oracle {
				exact = 1
			}
			partials := w.TotalStats().PartialsOut
			perNodeEpoch := float64(partials) / float64(n) / float64(epochs)
			radio := w.Sim().Stats().Sent
			tbl.AddRow(mode, n, epochs, r.Value(), exact,
				float64(partials), perNodeEpoch, float64(radio))
			res.Metrics[fmtKey("exact", mode, n)] = exact
			res.Metrics[fmtKey("partials_per_node_epoch", mode, n)] = perNodeEpoch
			res.Metrics[fmtKey("radio_msgs", mode, n)] = float64(radio)
		}
	}

	// Part 2: chaos epoch. A non-source node crashes (losing its reading
	// for good — local tuples have no other replica) while the radio
	// drops 30% of frames; after both windows heal, anti-entropy must
	// restore the tree and the convergecast must reconverge to the
	// post-crash oracle exactly. Run twice with the same seed: the
	// results must agree bit-for-bit.
	side := 6
	crashed := side + 1 // interior node, not the corner source
	postOracle := 0.0
	for i := 0; i < side*side; i++ {
		if i != crashed {
			postOracle += e14Reading(i)
		}
	}
	plan := fault.Plan{Events: []fault.Event{
		{Kind: fault.Loss, From: 3, Until: 9, P: 0.3},
		{Kind: fault.Crash, From: 5, Until: 11, Nodes: []tuple.NodeID{topology.NodeName(crashed)}},
	}}
	opts := []core.Option{
		core.WithSuspicion(2),
		core.WithPullBackoff(6),
		core.WithQuarantine(8, 16),
	}
	const maxEpochs = 40
	bits := make([]uint64, 0, 2)
	epochCounts := make([]int, 0, 2)
	for _, run := range []string{"r1", "r2"} {
		w := e14World(side, opts...)
		if w == nil {
			continue
		}
		src := topology.NodeName(0)
		id, err := w.Node(src).Inject(agg.NewQuery("e14chaos", agg.Sum, e14ReadingSel))
		if err != nil {
			continue
		}
		w.Settle(settleBudget)
		fault.New(w, plan)
		for tick := 0; tick <= plan.MaxTick()+1; tick++ {
			w.Tick(1)
		}
		// Healed. Count the epochs until the result matches the oracle of
		// the surviving readings.
		epochs := 0
		value := math.NaN()
		for ; epochs < maxEpochs; epochs++ {
			if r, ok := w.Node(src).AggResult(id); ok && r.Value() == postOracle {
				value = r.Value()
				break
			}
			w.RefreshAll()
			w.Settle(settleBudget)
		}
		converged := 0.0
		if value == postOracle {
			converged = 1
		}
		bits = append(bits, math.Float64bits(value))
		epochCounts = append(epochCounts, epochs)
		tbl.AddRow("chaos "+run, side*side, epochs, value, converged,
			float64(w.TotalStats().PartialsOut), 0, float64(w.Sim().Stats().Sent))
		res.Metrics[fmtKey("chaos_converged", run, side*side)] = converged
		res.Metrics[fmtKey("chaos_epochs", run, side*side)] = float64(epochs)
	}
	// Bit-identical means the whole trajectory matched, not just the
	// limit: same result bits after the same number of repair epochs.
	deterministic := 0.0
	if len(bits) == 2 && bits[0] == bits[1] && epochCounts[0] == epochCounts[1] {
		deterministic = 1
	}
	res.Metrics["chaos_deterministic"] = deterministic
	return res
}

func fmtKey(stem, mode string, n int) string {
	return fmt.Sprintf("%s_%s_n%d", stem, mode, n)
}
