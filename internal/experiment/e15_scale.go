package experiment

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"tota/internal/core"
	"tota/internal/emulator"
	"tota/internal/metrics"
	"tota/internal/mobility"
	"tota/internal/obs"
	"tota/internal/pattern"
	"tota/internal/space"
	"tota/internal/topology"
)

// E15Run is one scale measurement: a gradient settled over a jittered
// grid of the given size, followed by a few mobility ticks.
type E15Run struct {
	Nodes int
	Edges int

	BuildSec     float64 // world construction + initial edge recompute
	Rounds       int     // radio rounds for the gradient to settle
	SettleSec    float64
	RoundsPerSec float64
	Msgs         int64 // radio transmissions during the settle

	TickSec float64 // mean wall-clock per mobility tick after settling

	GradErr float64 // vs the BFS oracle (must be 0 on a lossless radio)
	Missing int
	Extra   int

	PeakRSSMB float64
}

// e15JitteredGrid lays out n nodes on a unit-spaced grid jittered by
// ±0.15 per axis. With radio range 1.5 the worst-case distance between
// axis-adjacent nodes is 1 + 2·0.15·√2 ≈ 1.42 < 1.5, so the layout is
// always 4-connected — a deterministic connected 100k-node world with
// no rejection sampling.
func e15JitteredGrid(n int, rng *rand.Rand) *topology.Graph {
	side := int(math.Ceil(math.Sqrt(float64(n))))
	g := topology.New()
	for i := 0; i < n; i++ {
		g.SetPosition(topology.NodeName(i), space.Point{
			X: float64(i%side) + (rng.Float64()-0.5)*0.3,
			Y: float64(i/side) + (rng.Float64()-0.5)*0.3,
		})
	}
	return g
}

// e15RadioRange matches the jittered-grid spacing (see e15JitteredGrid).
const e15RadioRange = 1.5

// scaleGCPercent is the GC pacing used for worlds of scaleGCNodes nodes
// or more. The default GOGC=100 lets the heap grow to 2× live before
// collecting; at 100k+ nodes live state is hundreds of MiB, so that
// headroom — not the engine state itself — dominates peak RSS. Pinning
// the ceiling at 1.2× live cuts VmHWM by ~35% at the 100k point; the
// price is more frequent marks, which on one core costs roughly a third
// of settle throughput (~37 vs ~60 rounds/s at 100k). The scale runs
// exist to demonstrate footprint, so the trade goes to memory. See
// DESIGN.md §13.
const (
	scaleGCPercent = 20
	scaleGCNodes   = 100_000
)

// NewScaleWorld builds the E15 fixture: an n-node jittered-grid world
// with its initial edge set settled and the engine hop bound scaled to
// the layout (the grid's eccentricity from center — ~side hops plus
// jitter detours — exceeds the default 128-hop safety bound, which
// would kill the wave early). Shared by BenchmarkRefreshEpoch2500 and
// the perfbench emu_grid workload.
//
// The second argument is ignored: it once chose a tick-phase shard
// count, and stays only so existing callers keep compiling.
func NewScaleWorld(n, _ int) *emulator.World {
	if n >= scaleGCNodes {
		debug.SetGCPercent(scaleGCPercent)
	}
	rng := rand.New(rand.NewSource(15))
	g := e15JitteredGrid(n, rng)
	g.Recompute(e15RadioRange) // initial edge set, before nodes attach
	side := int(math.Ceil(math.Sqrt(float64(n))))
	return emulator.New(emulator.Config{
		Graph:       g,
		RadioRange:  e15RadioRange,
		Seed:        15,
		NodeOptions: []core.Option{core.WithMaxHops(2*side + 16)},
	})
}

// RunE15N settles one gradient over an n-node jittered grid, then runs
// moverTicks mobility ticks with ~1% of the nodes mobile. It is the
// shared core of RunE15 and the tota-emu "scale" scenario.
func RunE15N(n, moverTicks int) E15Run {
	rng := rand.New(rand.NewSource(15))
	start := time.Now()
	w := NewScaleWorld(n, 0)
	g := w.Graph()
	side := int(math.Ceil(math.Sqrt(float64(n))))
	out := E15Run{Nodes: n, Edges: g.EdgeCount()}
	out.BuildSec = time.Since(start).Seconds()

	// Inject at the grid center so the settle wavefront is as short as
	// the layout allows.
	src := topology.NodeName((side/2)*side + side/2)
	if !g.HasNode(src) {
		src = topology.NodeName(0)
	}
	if _, err := w.Node(src).Inject(pattern.NewGradient("e15")); err != nil {
		panic(err)
	}
	start = time.Now()
	out.Rounds = w.Settle(settleBudget)
	out.SettleSec = time.Since(start).Seconds()
	if out.SettleSec > 0 {
		out.RoundsPerSec = float64(out.Rounds) / out.SettleSec
	}
	out.Msgs = w.Sim().Stats().Sent
	out.GradErr, out.Missing, out.Extra = w.GradientError(pattern.KindGradient, "e15", src, 1e18)

	// A taste of mobility at scale: ~1% of nodes get movers, and each
	// tick re-spots only the moved nodes via the dirty set.
	if moverTicks > 0 {
		bounds := space.Rect{Max: space.Point{X: float64(side), Y: float64(side)}}
		for i := 0; i < n; i += 97 {
			id := topology.NodeName(i)
			p, _ := g.Position(id)
			w.SetMover(id, mobility.NewRandomWaypoint(p, bounds, 0.5, 1, 0, rng))
		}
		start = time.Now()
		for t := 0; t < moverTicks; t++ {
			w.Tick(0.5)
		}
		out.TickSec = time.Since(start).Seconds() / float64(moverTicks)
	}
	out.PeakRSSMB = peakRSSMB()
	return out
}

// RunE15 is the scale deliverable of ISSUE 6: deterministic gradient
// settling over ≥100k nodes (Full scale), reporting settle rounds/sec,
// message totals, oracle error and peak RSS per network size. Quick
// scale runs the same pipeline at 1k nodes for tests and CI.
func RunE15(scale Scale) *Result {
	sizes := []int{1_024}
	if scale == Full {
		sizes = append(sizes, 10_000, 100_489)
	}
	tbl := metrics.NewTable(
		"E15 (scale): serial deterministic emulation — gradient settle on jittered grids",
		"nodes", "edges", "rounds", "msgs", "settle_s", "rounds/s", "tick_ms", "grad_err", "miss", "extra", "peak_rss_mb")
	res := newResult(tbl)
	for _, n := range sizes {
		r := RunE15N(n, 3)
		tbl.AddRow(r.Nodes, r.Edges, r.Rounds, r.Msgs,
			metrics.FormatFloat(r.SettleSec), metrics.FormatFloat(r.RoundsPerSec),
			metrics.FormatFloat(r.TickSec*1000),
			metrics.FormatFloat(r.GradErr), r.Missing, r.Extra,
			metrics.FormatFloat(r.PeakRSSMB))
		label := strconv.Itoa(r.Nodes)
		res.Metrics["rounds_n"+label] = float64(r.Rounds)
		res.Metrics["rounds_per_sec_n"+label] = r.RoundsPerSec
		res.Metrics["msgs_n"+label] = float64(r.Msgs)
		res.Metrics["grad_err_n"+label] = r.GradErr + float64(r.Missing) + float64(r.Extra)
		res.Metrics["peak_rss_mb"] = r.PeakRSSMB
	}
	return res
}

// peakRSSMB reports the process's peak resident set in MiB, preferring
// the kernel's VmHWM accounting and falling back to the Go runtime's
// reserved-memory figure where /proc is unavailable.
func peakRSSMB() float64 {
	if _, peak := obs.ReadProcRSS(); peak > 0 {
		return float64(peak) / (1 << 20)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
