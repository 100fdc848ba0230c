package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"tota/internal/core"
	"tota/internal/emulator"
	"tota/internal/experiment"
	"tota/internal/mobility"
	"tota/internal/pattern"
	"tota/internal/space"
	"tota/internal/topology"
	"tota/internal/tuple"
)

// emu_grid runs experiment.NewScaleWorld at the program's default
// shards and workers, one world per gridWorldSeconds of --seconds, each
// through the same script: settle four gradients, run steady-state
// anti-entropy epochs, then move every 97th node and repair. The world
// count depends on --seconds alone, never on how fast the host is, so
// the same seed and --seconds attempt (and fail) the same operations.
const (
	gridWorldSeconds = 5.0 // a 10k-node world takes about 4–5 s on 2 vCPUs
	gridNodes        = 10_000
	gridGradients    = 4
	gridEpochs       = 3
	gridRepairs      = 8
	moverStride      = 97
	gridObservers    = 64
	repairDt         = 0.5
)

// gridRun is one world going through the script.
type gridRun struct {
	opts  options
	tr    *tracer
	w     *emulator.World
	n     int
	side  int
	srcs  [gridGradients]tuple.NodeID
	names [gridGradients]string

	// The storm guard. A repair that needs more rounds than twice the
	// engine's hop bound, or puts more packets in flight than a whole
	// anti-entropy epoch does (one frame on every directed link, about
	// 15 times the peak of settling all four gradients from scratch), is
	// not converging: it counts as failed and the world is abandoned.
	// Settle and epochs run under the same round cap and a looser safety
	// net of one frame per gradient per directed link.
	roundCap, repairCap, drainCap int
	tripRounds, tripPend          int

	// arrivals[g*gridObservers+o] is when observer o first saw gradient
	// g, in ns after the settle began (0 = not yet).
	arrivals  []atomic.Int64
	settleAt  time.Time
	tracedFor time.Duration
}

// gridSamples collects the script's measurements over all worlds.
type gridSamples struct {
	setup, settle, events, evRate, reads, epochs, repairs, bytes []float64
	// worldRepairs holds each world's repair times: a world that breaks
	// the storm guard has one, a healthy world gridRepairs.
	worldRepairs        [][]float64
	epochsOn, epochsOff []float64
	msgs                int64
	before, after       core.Stats
	sent, payload       int64
	tracedFor           time.Duration
	storm               string
}

func runGrid(opts options) (*result, error) {
	res := newResult()
	n := opts.nodes
	if n == 0 {
		n = gridNodes
	}
	rng := rand.New(rand.NewSource(opts.seed))
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	var s gridSamples
	worlds := max(1, int(math.Round(opts.seconds/gridWorldSeconds)))
	for world := 0; world < worlds; world++ {
		g := newGridRun(opts, tr, n, rng, &s)
		g.script(res, rng, &s, world)
		s.tracedFor += g.tracedFor
		runtime.GC()
	}

	res.set("setup_s", "s", median(s.setup))
	res.set("settle_s", "s", median(s.settle))
	res.set("event_p50_ms", "ms", quantile(s.events, 0.5))
	res.set("event_p99_ms", "ms", p99(s.events, gridGradients*gridObservers))
	res.set("events_per_s", "1/s", median(s.evRate))
	res.set("read_p50_ms", "ms", quantile(s.reads, 0.5))
	res.set("read_p99_ms", "ms", p99(s.reads, gridGradients))
	res.set("epoch_p50_ms", "ms", quantile(s.epochs, 0.5))
	res.set("epoch_p99_ms", "ms", p99(s.epochs, gridEpochs))
	res.set("repair_p50_ms", "ms", quantile(s.repairs, 0.5))
	var tails []float64
	for _, w := range s.worldRepairs {
		tails = append(tails, quantile(w, 0.99))
	}
	res.set("repair_p99_ms", "ms", median(tails))
	res.set("bytes_per_node", "B", median(s.bytes))
	res.set("msgs_per_node", "count", float64(s.msgs)/float64(n))
	res.samples["worlds"] = len(s.setup)
	res.samples["settle"] = len(s.settle)
	res.samples["event"] = len(s.events)
	res.samples["read"] = len(s.reads)
	res.samples["epoch"] = len(s.epochs)
	res.samples["repair"] = len(s.repairs)
	if s.storm != "" {
		res.note("%s", s.storm)
	}
	if tr != nil {
		frameBytes, decodeNs := tr.wireStats()
		engineLayers(res, tr, s.before, s.after, s.tracedFor, frameBytes, decodeNs)
		res.layer("transport.step_ms", tr.step.quantile(0.5)/1e6)
		res.layer("transport.sent", float64(s.sent))
		res.layer("transport.payload_bytes", float64(s.payload))
		res.layer("emulator.tick_ms", tr.tick.quantile(0.5)/1e6)
		res.layer("emulator.refresh_all_ms", tr.refreshAll.quantile(0.5)/1e6)
		res.layer("trace.event_p50_ms", quantile(s.events, 0.5))
		res.layer("trace.overhead_ms", quantile(s.epochsOn, 0.5)-quantile(s.epochsOff, 0.5))
		if err := tr.write(opts.spansDir, fmt.Sprintf("%s-seed%d.jsonl", opts.workload, opts.seed)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// newGridRun builds one world (timed as set-up), wraps its handlers when
// tracing, and attaches the application observers.
func newGridRun(opts options, tr *tracer, n int, rng *rand.Rand, s *gridSamples) *gridRun {
	start := time.Now()
	w := experiment.NewScaleWorld(n, 0)
	s.setup = append(s.setup, time.Since(start).Seconds())
	side := int(math.Ceil(math.Sqrt(float64(n))))
	g := &gridRun{opts: opts, tr: tr, w: w, n: n, side: side,
		roundCap:  2 * (2*side + 16),
		repairCap: 2 * w.Graph().EdgeCount(),
		drainCap:  gridGradients * 2 * w.Graph().EdgeCount(),
		arrivals:  make([]atomic.Int64, gridGradients*gridObservers),
	}
	g.srcs = [gridGradients]tuple.NodeID{
		topology.NodeName(0), topology.NodeName(side - 1),
		topology.NodeName((side/2)*side + side/2), topology.NodeName(n - 1),
	}
	index := map[string]int{}
	for i := range g.names {
		g.names[i] = fmt.Sprintf("grad%d-%04x", i, rng.Intn(1<<16))
		index[g.names[i]] = i
	}
	if tr != nil {
		for _, id := range w.Nodes() {
			w.Sim().Bind(id, handler{t: tr, h: w.Node(id)})
		}
	}
	for o := 0; o < gridObservers; o++ {
		o := o
		w.Node(topology.NodeName(rng.Intn(n))).Subscribe(tuple.Match(pattern.KindGradient), func(ev core.Event) {
			if ev.Type != core.TupleArrived {
				return
			}
			if gi, ok := index[ev.Tuple.Content().GetString("name")]; ok {
				g.arrivals[gi*gridObservers+o].CompareAndSwap(0, int64(time.Since(g.settleAt)))
			}
		})
	}
	return g
}

// drain steps the radio to quiescence under the storm guard, with at
// most inflightCap packets in flight.
func (g *gridRun) drain(parent int32, inflightCap int) bool {
	sim := g.w.Sim()
	for rounds := 0; ; rounds++ {
		p := sim.Pending()
		if p == 0 {
			return true
		}
		if rounds >= g.roundCap || p > inflightCap {
			g.tripRounds, g.tripPend = rounds, p
			return false
		}
		if g.tr == nil {
			sim.Step()
			continue
		}
		g.tr.timed(&g.tr.step, "transport.step", parent, func() { sim.Step() })
	}
}

// phase runs fn as one timed operation, inside a root span when traced.
func (g *gridRun) phase(name string, fn func(parent int32) bool) (time.Duration, bool) {
	id := g.tr.open(name)
	on := g.tr != nil && g.tr.on.Load()
	start := time.Now()
	ok := fn(id)
	d := time.Since(start)
	g.tr.close(id)
	if on {
		g.tracedFor += d
	}
	return d, ok
}

// checkOracle compares every gradient with the BFS oracle.
func (g *gridRun) checkOracle(res *result, when string) {
	for i, name := range g.names {
		e, miss, extra := g.w.GradientError(pattern.KindGradient, name, g.srcs[i], math.Inf(1))
		if e != 0 || miss != 0 || extra != 0 {
			res.wrong("%s: gradient %s differs from the BFS oracle (err %g, missing %d, extra %d)", when, name, e, miss, extra)
		}
	}
}

func (g *gridRun) setTracing(on bool) {
	if g.tr != nil {
		g.tr.on.Store(on)
	}
}

// script runs settle, epochs and repairs on the world.
func (g *gridRun) script(res *result, rng *rand.Rand, s *gridSamples, world int) {
	w, sim := g.w, g.w.Sim()
	before := w.TotalStats()
	s.before = s.before.Add(before)
	defer func() {
		s.after = s.after.Add(w.TotalStats())
		st := sim.Stats()
		s.sent += st.Sent
		s.payload += st.PayloadBytes
	}()
	abandon := func(from int) {
		res.Failed += int64(gridEpochs - from + gridRepairs)
	}

	// Settle.
	res.Attempted += 1 + gridEpochs + gridRepairs
	g.setTracing(true)
	sent0 := sim.Stats().Sent
	d, ok := g.phase("emu.settle", func(parent int32) bool {
		g.settleAt = time.Now()
		for i, src := range g.srcs {
			if _, err := w.Node(src).Inject(pattern.NewGradient(g.names[i])); err != nil {
				res.note("inject gradient: %v", err)
				return false
			}
		}
		return g.drain(parent, g.drainCap)
	})
	if !ok {
		res.Failed++
		res.note("world %d: settle broke the storm guard after %d rounds (%d in flight)", world, g.tripRounds, g.tripPend)
		abandon(0)
		return
	}
	s.settle = append(s.settle, d.Seconds())
	after := w.TotalStats()
	arrived := (after.Stored + after.Superseded + after.MaintAdopt) - (before.Stored + before.Superseded + before.MaintAdopt)
	s.evRate = append(s.evRate, float64(arrived)/d.Seconds())
	for i := range g.arrivals {
		if t := g.arrivals[i].Load(); t > 0 {
			s.events = append(s.events, ms(float64(t)/1e9))
		}
	}
	msgs := sim.Stats().Sent - sent0
	if g.opts.afterSettle != nil {
		g.opts.afterSettle(g)
	}
	g.checkOracle(res, "after settle")

	s.bytes = append(s.bytes, float64(heapInUse())/float64(g.n))

	// Reads: one sweep per gradient reads it at every node, in a seeded
	// order, as an application scanning the field would. A sweep is one
	// sample: single reads take a few microseconds, and their tail moved
	// with the state of the host more than with the code.
	order := rng.Perm(g.n)
	nodes := make([]*core.Node, g.n)
	for j, i := range order {
		nodes[j] = w.Node(topology.NodeName(i))
	}
	for _, name := range g.names {
		tpl := pattern.ByName(pattern.KindGradient, name)
		bad := 0
		start := time.Now()
		for _, nd := range nodes {
			if len(nd.Read(tpl)) != 1 {
				bad++
			}
		}
		s.reads = append(s.reads, ms(time.Since(start).Seconds()))
		if bad > 0 {
			res.wrong("reads of %s returned other than one tuple on %d nodes", name, bad)
		}
	}

	// Steady-state epochs; a traced run alternates recording per epoch.
	for e := 0; e < gridEpochs; e++ {
		g.setTracing(e%2 == 0)
		sent0 := sim.Stats().Sent
		d, ok := g.phase("emu.epoch", func(parent int32) bool {
			if g.tr != nil {
				g.tr.timed(&g.tr.refreshAll, "emulator.refresh_all", parent, func() { w.RefreshAll() })
			} else {
				w.RefreshAll()
			}
			return g.drain(parent, g.drainCap)
		})
		if !ok {
			res.Failed++
			res.note("world %d: epoch %d broke the storm guard after %d rounds (%d in flight)", world, e, g.tripRounds, g.tripPend)
			abandon(e + 1)
			return
		}
		msgs += sim.Stats().Sent - sent0
		s.epochs = append(s.epochs, ms(d.Seconds()))
		if e%2 == 0 {
			s.epochsOn = append(s.epochsOn, ms(d.Seconds()))
		} else {
			s.epochsOff = append(s.epochsOff, ms(d.Seconds()))
		}
	}
	s.msgs = msgs // identical for every world: the script is deterministic up to here

	// Mobile repairs.
	g.setTracing(true)
	bounds := space.Rect{Max: space.Point{X: float64(g.side), Y: float64(g.side)}}
	for i := rng.Intn(moverStride); i < g.n; i += moverStride {
		id := topology.NodeName(i)
		p, _ := w.Graph().Position(id)
		w.SetMover(id, mobility.NewRandomWaypoint(p, bounds, 0.5, 1, 0, rng))
	}
	s.worldRepairs = append(s.worldRepairs, nil)
	for r := 0; r < gridRepairs; r++ {
		d, ok := g.phase("emu.repair", func(parent int32) bool {
			if g.tr != nil {
				g.tr.timed(&g.tr.tick, "emulator.tick", parent, func() { w.Tick(repairDt) })
			} else {
				w.Tick(repairDt)
			}
			return g.drain(parent, g.repairCap)
		})
		// A repair that breaks the guard counts at the time the guard
		// needed to stop it, and so does each repair the world then
		// abandons: a failed repair misses any latency a working one
		// would meet. Every world thus gives gridRepairs samples, and
		// the percentiles do not hinge on how many worlds of a seed
		// fail at repair 0 rather than 1.
		times := 1
		if !ok {
			times = gridRepairs - r
		}
		for range times {
			s.repairs = append(s.repairs, ms(d.Seconds()))
			s.worldRepairs[len(s.worldRepairs)-1] = append(s.worldRepairs[len(s.worldRepairs)-1], ms(d.Seconds()))
		}
		if !ok {
			res.Failed += int64(gridRepairs - r)
			if s.storm == "" {
				s.storm = fmt.Sprintf("storm: seed %d, world %d (%d nodes), repair %d broke the guard after %d rounds with %d packets in flight (cap %d); %d repairs abandoned",
					g.opts.seed, world, g.n, r, g.tripRounds, g.tripPend, g.repairCap, gridRepairs-r-1)
			}
			return
		}
		g.checkOracle(res, fmt.Sprintf("after repair %d", r))
	}
}
