package emulator

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"tota/internal/core"
	"tota/internal/mobility"
	"tota/internal/pattern"
	"tota/internal/space"
	"tota/internal/topology"
	"tota/internal/transport"
	"tota/internal/tuple"
)

// seededRun captures everything determinism must preserve: the full
// distributed state, the middleware and radio counters, the gradient
// error, and every node's engine-decision trace in order.
type seededRun struct {
	fingerprint string
	nodeStats   core.Stats
	simStats    transport.Stats
	gradErr     float64
	missing     int
	extra       int
	traces      map[tuple.NodeID][]string
}

// traceLog returns a tracer that records every node's engine-decision
// trace in order, and the map it records into.
func traceLog() (core.Tracer, map[tuple.NodeID][]string) {
	var mu sync.Mutex
	traces := make(map[tuple.NodeID][]string)
	return func(ev core.TraceEvent) {
		mu.Lock()
		traces[ev.Node] = append(traces[ev.Node], ev.String())
		mu.Unlock()
	}, traces
}

// runRetractScenario executes a 30-node lossy mobile scenario
// (mobility, refresh, and a flood retracted mid-run).
func runRetractScenario(seed int64) seededRun {
	rng := rand.New(rand.NewSource(seed))
	g := topology.ConnectedRandomGeometric(30, 10, 3, rng, 100)

	tracer, traces := traceLog()

	w := New(Config{
		Graph:        g,
		RadioRange:   3,
		Loss:         0.2,
		RefreshEvery: 5,
		Seed:         seed,
		NodeOptions:  []core.Option{core.WithTracer(tracer)},
	})
	bounds := space.Rect{Max: space.Point{X: 10, Y: 10}}
	for i, id := range g.Nodes() {
		if i%3 == 0 {
			p, _ := g.Position(id)
			w.SetMover(id, mobility.NewRandomWaypoint(p, bounds, 0.5, 1, 0, rng))
		}
	}
	src := topology.NodeName(0)
	if _, err := w.Node(src).Inject(pattern.NewGradient("f")); err != nil {
		panic(err)
	}
	floodID, err := w.Node(topology.NodeName(5)).Inject(pattern.NewFlood("news"))
	if err != nil {
		panic(err)
	}
	for i := 0; i < 40; i++ {
		w.Tick(0.5)
		if i == 25 {
			w.Node(topology.NodeName(5)).Retract(floodID)
		}
	}
	w.Settle(100000)
	meanAbs, missing, extra := w.GradientError(pattern.KindGradient, "f", src, 1e18)
	return seededRun{
		fingerprint: fingerprint(w),
		nodeStats:   w.TotalStats(),
		simStats:    w.Sim().Stats(),
		gradErr:     meanAbs,
		missing:     missing,
		extra:       extra,
		traces:      traces,
	}
}

func diffRuns(t *testing.T, label string, a, b seededRun) {
	t.Helper()
	if a.fingerprint != b.fingerprint {
		t.Errorf("%s: distributed state fingerprints diverged", label)
	}
	if a.nodeStats != b.nodeStats {
		t.Errorf("%s: middleware stats diverged:\n%+v\n%+v", label, a.nodeStats, b.nodeStats)
	}
	if a.simStats != b.simStats {
		t.Errorf("%s: radio stats diverged:\n%+v\n%+v", label, a.simStats, b.simStats)
	}
	if a.gradErr != b.gradErr || a.missing != b.missing || a.extra != b.extra {
		t.Errorf("%s: gradient readings diverged: (%v,%d,%d) vs (%v,%d,%d)",
			label, a.gradErr, a.missing, a.extra, b.gradErr, b.missing, b.extra)
	}
	if !reflect.DeepEqual(a.traces, b.traces) {
		for id, want := range a.traces {
			got := b.traces[id]
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: node %s trace diverged (%d vs %d events)", label, id, len(want), len(got))
				break
			}
		}
	}
}

// runLeaseScenario executes a 300-node lossy mobile scenario with
// every staged-send producer active: mover-driven churn, periodic
// refresh, a gradient settling, and a leased flood whose mid-run expiry
// makes the sweep phase emit withdrawals.
func runLeaseScenario(seed int64) seededRun {
	rng := rand.New(rand.NewSource(seed))
	g := topology.ConnectedRandomGeometric(300, 20, 2.5, rng, 100)
	if g == nil {
		panic("no connected 300-node layout")
	}

	tracer, traces := traceLog()

	w := New(Config{
		Graph:        g,
		RadioRange:   2.5,
		Loss:         0.15,
		RefreshEvery: 4,
		Seed:         seed,
		NodeOptions:  []core.Option{core.WithTracer(tracer)},
	})
	bounds := space.Rect{Max: space.Point{X: 20, Y: 20}}
	for i, id := range g.Nodes() {
		if i%5 == 0 {
			p, _ := g.Position(id)
			w.SetMover(id, mobility.NewRandomWaypoint(p, bounds, 0.5, 1, 0, rng))
		}
	}
	src := topology.NodeName(0)
	if _, err := w.Node(src).Inject(pattern.NewGradient("f")); err != nil {
		panic(err)
	}
	// Lease expires at t=8 (tick 16 of 30): the expiry sweep must
	// withdraw copies while refresh traffic is in flight.
	if _, err := w.Node(topology.NodeName(7)).Inject(pattern.NewFlood("news").Expires(8)); err != nil {
		panic(err)
	}
	for i := 0; i < 30; i++ {
		w.Tick(0.5)
	}
	w.Settle(100000)
	meanAbs, missing, extra := w.GradientError(pattern.KindGradient, "f", src, 1e18)
	return seededRun{
		fingerprint: fingerprint(w),
		nodeStats:   w.TotalStats(),
		simStats:    w.Sim().Stats(),
		gradErr:     meanAbs,
		missing:     missing,
		extra:       extra,
		traces:      traces,
	}
}

// runConcurrently runs n independent copies of run at once, one per
// goroutine, and returns their results in order.
func runConcurrently[T any](n int, run func() T) []T {
	out := make([]T, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = run()
		}(i)
	}
	wg.Wait()
	return out
}

// TestParallelSteppingIsDeterministic is the same-seed guarantee for the
// retract scenario (loss, mobility, refresh and retraction all active):
// identical distributed state, middleware and radio counters, gradient
// readings and per-node traces run after run, under GOMAXPROCS=1 and 8,
// and when 2 or 8 independent worlds step it in parallel goroutines.
// TestGoldenDigests then ties the runs to the recorded outputs.
func TestParallelSteppingIsDeterministic(t *testing.T) {
	base := runRetractScenario(99)
	if base.simStats.Delivered == 0 {
		t.Fatal("scenario delivered nothing; not a meaningful determinism check")
	}
	diffRuns(t, "same seed twice", base, runRetractScenario(99))
	for _, n := range []int{2, 8} {
		for i, run := range runConcurrently(n, func() seededRun { return runRetractScenario(99) }) {
			diffRuns(t, fmt.Sprintf("%d parallel worlds, world %d", n, i), base, run)
		}
	}

	prev := runtime.GOMAXPROCS(1)
	one := runRetractScenario(99)
	runtime.GOMAXPROCS(8)
	eight := runRetractScenario(99)
	runtime.GOMAXPROCS(prev)
	diffRuns(t, "GOMAXPROCS=1 vs GOMAXPROCS=8", one, eight)
	diffRuns(t, "serial vs GOMAXPROCS=8", base, eight)
}

// TestShardedSteppingIsDeterministic is the same-seed guarantee for the
// 300-node lease scenario, a world large enough that its refresh and
// expiry sweeps once ran over region shards: the expiry sweep must
// withdraw copies while refresh traffic is in flight, and two runs must
// agree bit for bit.
func TestShardedSteppingIsDeterministic(t *testing.T) {
	base := runLeaseScenario(42)
	if base.simStats.Delivered == 0 {
		t.Fatal("scenario delivered nothing; not a meaningful determinism check")
	}
	if base.nodeStats.TTLDropped == 0 && base.nodeStats.MaintDrop == 0 {
		t.Fatal("lease never expired; sweep phase untested")
	}
	diffRuns(t, "same seed twice", base, runLeaseScenario(42))
}

// TestShardedSteppingAcrossGOMAXPROCS re-runs the lease scenario under
// GOMAXPROCS=1 and GOMAXPROCS=8 — the cross-machine reproducibility
// claim: nothing in a tick depends on the CPU count.
func TestShardedSteppingAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	one := runLeaseScenario(42)
	runtime.GOMAXPROCS(8)
	eight := runLeaseScenario(42)
	runtime.GOMAXPROCS(prev)
	diffRuns(t, "GOMAXPROCS=1 vs GOMAXPROCS=8", one, eight)
}
