package emulator

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tota/internal/core"
	"tota/internal/mobility"
	"tota/internal/obs"
	"tota/internal/pattern"
	"tota/internal/space"
	"tota/internal/topology"
	"tota/internal/tuple"
)

// flightFleet lazily builds one FlightRecorder per node, routing each
// engine event to the emitting node's ring — the per-node black box a
// real deployment would keep. The clock is the radio round counter, so
// stamps are part of the determinism contract (unlike wall time).
type flightFleet struct {
	clock func() float64

	mu      sync.Mutex
	byNode  map[tuple.NodeID]*obs.FlightRecorder
	tracers map[tuple.NodeID]core.Tracer
}

func newFlightFleet(clock func() float64) *flightFleet {
	return &flightFleet{
		clock:   clock,
		byNode:  make(map[tuple.NodeID]*obs.FlightRecorder),
		tracers: make(map[tuple.NodeID]core.Tracer),
	}
}

func (f *flightFleet) Tracer() core.Tracer {
	return func(ev core.TraceEvent) {
		f.mu.Lock()
		tr, ok := f.tracers[ev.Node]
		if !ok {
			rec := obs.NewFlightRecorder(f.clock, 1<<14)
			f.byNode[ev.Node] = rec
			tr = rec.Tracer()
			f.tracers[ev.Node] = tr
		}
		f.mu.Unlock()
		tr(ev)
	}
}

// records snapshots every node's ring as JSONL-schema records.
func (f *flightFleet) records() map[tuple.NodeID][]obs.TraceRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[tuple.NodeID][]obs.TraceRecord, len(f.byNode))
	for id, rec := range f.byNode {
		out[id] = rec.Records()
	}
	return out
}

// runFlightScenario runs the standard lossy mobile scenario (the
// TestSameSeedSameUniverse fixture) with full trace sampling and
// per-node flight recorders.
func runFlightScenario(seed int64) map[tuple.NodeID][]obs.TraceRecord {
	var w *World
	fleet := newFlightFleet(func() float64 { return float64(w.Sim().Rounds()) })
	rng := rand.New(rand.NewSource(seed))
	g := topology.ConnectedRandomGeometric(30, 10, 3, rng, 100)
	w = New(Config{
		Graph:        g,
		RadioRange:   3,
		Loss:         0.2,
		RefreshEvery: 5,
		Seed:         seed,
		NodeOptions: []core.Option{
			core.WithTracer(fleet.Tracer()),
			core.WithTraceSampling(1),
		},
	})
	bounds := space.Rect{Max: space.Point{X: 10, Y: 10}}
	for i, id := range g.Nodes() {
		if i%3 == 0 {
			p, _ := g.Position(id)
			w.SetMover(id, mobility.NewRandomWaypoint(p, bounds, 0.5, 1, 0, rng))
		}
	}
	if _, err := w.Node(topology.NodeName(0)).Inject(pattern.NewGradient("f")); err != nil {
		panic(err)
	}
	for i := 0; i < 40; i++ {
		w.Tick(0.5)
	}
	w.Settle(100000)
	return fleet.records()
}

// diffFlights asserts two per-node record maps are identical, naming
// the first diverging node otherwise.
func diffFlights(t *testing.T, label string, want, got map[tuple.NodeID][]obs.TraceRecord) {
	t.Helper()
	if reflect.DeepEqual(want, got) {
		return
	}
	for id, w := range want {
		if g := got[id]; !reflect.DeepEqual(g, w) {
			for i := range w {
				if i >= len(g) || g[i] != w[i] {
					t.Errorf("%s: node %s record %d diverged:\nwant %+v\ngot  %+v",
						label, id, i, w[i], recordAt(g, i))
					return
				}
			}
			t.Errorf("%s: node %s has %d extra records", label, id, len(g)-len(w))
			return
		}
	}
	t.Errorf("%s: flight contents diverged (extra nodes)", label)
}

func recordAt(recs []obs.TraceRecord, i int) any {
	if i < len(recs) {
		return recs[i]
	}
	return "<missing>"
}

// runGridFlightScenario is the large-world variant: a lossy 300-node
// grid whose expiry sweeps and refresh passes run every few ticks.
func runGridFlightScenario(seed int64) map[tuple.NodeID][]obs.TraceRecord {
	var w *World
	fleet := newFlightFleet(func() float64 { return float64(w.Sim().Rounds()) })
	g := topology.Grid(20, 15, 1)
	w = New(Config{
		Graph:        g,
		Loss:         0.15,
		RefreshEvery: 3,
		Seed:         seed,
		NodeOptions: []core.Option{
			core.WithTracer(fleet.Tracer()),
			core.WithTraceSampling(1),
		},
	})
	if _, err := w.Node(topology.NodeName(0)).Inject(pattern.NewGradient("f")); err != nil {
		panic(err)
	}
	for i := 0; i < 15; i++ {
		w.Tick(1)
	}
	w.Settle(100000)
	return fleet.records()
}

// TestFlightDeterministicAcrossWorkers: the per-node flight rings —
// contents, order, round stamps and span identities — are bit-identical
// across runs of the same seed, including runs of independent worlds
// on 4 or 8 parallel worker goroutines. This is what makes a flight
// dump diffable against a reproduction of the same seed.
func TestFlightDeterministicAcrossWorkers(t *testing.T) {
	first := runFlightScenario(99)
	var total, sampled int
	for _, recs := range first {
		total += len(recs)
		for _, r := range recs {
			if r.Trace != "" {
				sampled++
			}
		}
	}
	if total == 0 {
		t.Fatal("scenario recorded nothing; not a meaningful determinism check")
	}
	if sampled == 0 {
		t.Fatal("no record carries a trace id despite sampling 1")
	}
	diffFlights(t, "same seed twice", first, runFlightScenario(99))
	for _, n := range []int{4, 8} {
		runs := runConcurrently(n, func() map[tuple.NodeID][]obs.TraceRecord { return runFlightScenario(99) })
		for i, got := range runs {
			diffFlights(t, fmt.Sprintf("%d parallel worlds, world %d", n, i), first, got)
		}
	}
}

// TestFlightDeterministicAcrossShards is the large-world variant: the
// 300-node grid's expiry sweeps and refresh passes leave identical
// flight rings in two runs of the same seed.
func TestFlightDeterministicAcrossShards(t *testing.T) {
	if testing.Short() {
		t.Skip("300-node world")
	}
	grid := runGridFlightScenario(7)
	var total int
	for _, recs := range grid {
		total += len(recs)
	}
	if total == 0 {
		t.Fatal("grid scenario recorded nothing")
	}
	diffFlights(t, "grid scenario", grid, runGridFlightScenario(7))
}

// TestEmulatorThroughputMetrics: RegisterMetrics exposes the tick
// duration histogram and the rounds counter/rate series, and ticking
// feeds them.
func TestEmulatorThroughputMetrics(t *testing.T) {
	g := topology.Grid(4, 4, 1)
	w := New(Config{Graph: g, Seed: 1})
	reg := obs.NewRegistry()
	w.RegisterMetrics(reg)
	if _, err := w.Node(topology.NodeName(0)).Inject(pattern.NewFlood("x")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		w.Tick(1)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"tota_emu_tick_seconds_count 5",
		"tota_emu_radio_rounds_total 5",
		"tota_emu_rounds_per_s",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The rate gauge differentiates between scrapes: the first scrape
	// primed the sample, more rounds plus a second scrape must read >= 0
	// without panicking.
	w.Settle(10)
	b.Reset()
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "tota_emu_rounds_per_s") {
		t.Error("rate gauge disappeared on second scrape")
	}
}
