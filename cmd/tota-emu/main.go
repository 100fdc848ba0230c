// Command tota-emu is the CLI counterpart of the paper's graphic TOTA
// emulator: it runs a scenario over hundreds of simulated nodes and
// renders ASCII snapshots of the distributed tuple structures.
//
// Usage:
//
//	tota-emu -scenario gradient|flock|routing|meeting|aggregate|scale [-w 12] [-h 8] [-rounds 100]
//
// The scale scenario settles one gradient over a large jittered grid:
//
//	tota-emu -scenario scale -nodes 100489
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"tota/internal/agg"
	"tota/internal/core"
	"tota/internal/emulator"
	"tota/internal/experiment"
	"tota/internal/fault"
	"tota/internal/meeting"
	"tota/internal/obs"
	"tota/internal/pattern"
	"tota/internal/routing"
	"tota/internal/space"
	"tota/internal/topology"
	"tota/internal/tuple"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tota-emu:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tota-emu", flag.ContinueOnError)
	scenario := fs.String("scenario", "gradient", "scenario: gradient, flock, routing, meeting, aggregate or scale")
	width := fs.Int("w", 12, "grid width")
	height := fs.Int("h", 8, "grid height")
	rounds := fs.Int("rounds", 100, "coordination rounds (flock scenario)")
	trace := fs.Bool("trace", false, "print engine trace events (gradient scenario)")
	faultSpec := fs.String("fault", "", "seeded fault plan for the gradient scenario, e.g. 'loss@4-10:0.5;crash@6-12:n0030' (see internal/fault)")
	ticks := fs.Int("ticks", 0, "emulator ticks to drive after injection (0 = fault plan length + repair margin)")
	obsAddr := fs.String("obs.addr", "", "serve /metrics, /metrics.json and /healthz while the scenario runs")
	dash := fs.Int("dash", 0, "print a one-line telemetry dashboard every N radio rounds")
	report := fs.String("report", "", "write the final aggregated JSON report to this file ('-' for stdout)")
	nodes := fs.Int("nodes", 10000, "network size for the scale scenario")
	traceFile := fs.String("trace.jsonl", "", "export engine trace events as JSONL to this file ('-' for stderr); feed the file to tota-trace")
	flightSize := fs.Int("trace.flight", 0, "keep the last N trace events in an in-memory flight recorder (served at /debug/flight, dumped to stderr on crash)")
	sample := fs.Float64("trace.sample", 1, "fraction of injected tuples carrying a wire-level trace context when tracing is on")
	if err := fs.Parse(args); err != nil {
		return err
	}
	env := &obsEnv{
		scenario: *scenario, addr: *obsAddr, dash: *dash, report: *report,
		traceFile: *traceFile, flightSize: *flightSize, sample: *sample,
	}
	if err := env.initTrace(); err != nil {
		return err
	}
	if env.flight != nil {
		defer env.flight.DumpOnCrash(os.Stderr)()
	}
	var err error
	switch *scenario {
	case "gradient":
		err = gradientScenario(*width, *height, *trace, *faultSpec, *ticks, env)
	case "flock":
		err = flockScenario(*rounds)
	case "routing":
		err = routingScenario(*width, *height, env)
	case "meeting":
		err = meetingScenario(*rounds, env)
	case "aggregate":
		err = aggregateScenario(*width, *height, *ticks, env)
	case "scale":
		err = scaleScenario(*nodes, *ticks)
	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}
	if err != nil {
		return err
	}
	return env.finish()
}

// obsEnv carries the telemetry flags into a scenario: it exposes the
// world on -obs.addr, prints a dashboard line every -dash rounds while
// the radio settles, and emits the -report JSON artifact at the end.
type obsEnv struct {
	scenario   string
	addr       string
	dash       int
	report     string
	traceFile  string
	flightSize int
	sample     float64

	srv      *obs.Server
	world    *emulator.World
	rollups  []emulator.Rollup
	reg      *obs.Registry
	sink     *obs.JSONLSink
	sinkFile *os.File
	flight   *obs.FlightRecorder
}

// initTrace builds the trace pipeline before any world exists (node
// options need the tracers at construction time). The sink clock is
// the radio round counter, read lazily once the scenario attaches its
// world — wall-clock-free, so traced runs stay reproducible. The sink
// registers its written/dropped counters (tota_trace_events_total,
// tota_trace_dropped_total) on the exposition registry when -obs.addr
// is also set, so shedding is visible on /metrics.
func (e *obsEnv) initTrace() error {
	if e.traceFile == "" && e.flightSize <= 0 {
		return nil
	}
	clock := func() float64 {
		if w := e.world; w != nil {
			return float64(w.Sim().Rounds())
		}
		return 0
	}
	if e.addr != "" {
		e.reg = obs.NewRegistry()
	}
	if e.traceFile != "" {
		w := io.Writer(os.Stderr)
		if e.traceFile != "-" {
			f, err := os.Create(e.traceFile)
			if err != nil {
				return err
			}
			e.sinkFile = f
			w = f
		}
		e.sink = obs.NewJSONLSink(w, e.reg, clock, 1<<16)
	}
	if e.flightSize > 0 {
		e.flight = obs.NewFlightRecorder(clock, e.flightSize)
	}
	return nil
}

// applyTrace appends the trace pipeline (plus any scenario-local
// tracers) and the sampling rate to a world's node options. Call it
// before emulator.New.
func (e *obsEnv) applyTrace(cfg *emulator.Config, extra ...core.Tracer) {
	tracers := make([]core.Tracer, 0, 2+len(extra))
	if e.sink != nil {
		tracers = append(tracers, e.sink.Tracer())
	}
	if e.flight != nil {
		tracers = append(tracers, e.flight.Tracer())
	}
	tracers = append(tracers, extra...)
	if tr := obs.MultiTracer(tracers...); tr != nil {
		cfg.NodeOptions = append(cfg.NodeOptions, core.WithTracer(tr))
	}
	if e.sink != nil || e.flight != nil {
		cfg.NodeOptions = append(cfg.NodeOptions, core.WithTraceSampling(e.sample))
	}
}

// attach hooks the scenario's world up to the requested telemetry.
// Scenarios that build their world indirectly (flock) skip it; finish
// then has nothing to report.
func (e *obsEnv) attach(w *emulator.World) error {
	e.world = w
	if e.addr == "" {
		return nil
	}
	if e.reg == nil {
		e.reg = obs.NewRegistry()
	}
	w.RegisterMetrics(e.reg)
	obs.RegisterRuntime(e.reg)
	obs.RegisterMemMetrics(e.reg)
	var srv *obs.Server
	var err error
	if e.flight != nil {
		srv, err = obs.Serve(e.addr, e.reg, e.flight)
	} else {
		srv, err = obs.Serve(e.addr, e.reg)
	}
	if err != nil {
		return err
	}
	e.srv = srv
	fmt.Printf("telemetry on http://%s/metrics\n", srv.Addr())
	return nil
}

// settle drains the radio like World.Settle, publishing a rollup every
// round so live scrapes advance, and sampling the dashboard/report
// every -dash rounds.
func (e *obsEnv) settle(w *emulator.World, maxRounds int) int {
	if e.world != w || (e.addr == "" && e.dash <= 0 && e.report == "") {
		return w.Settle(maxRounds)
	}
	rounds := 0
	for ; rounds < maxRounds && w.Sim().Pending() > 0; rounds++ {
		w.Sim().Step()
		w.PublishRollup()
		if e.dash > 0 && (rounds+1)%e.dash == 0 {
			r := w.Rollup()
			e.rollups = append(e.rollups, r)
			fmt.Println(r.Dashboard())
		}
	}
	return rounds
}

// finish drains the trace sink, emits the report and shuts the
// exposition server down.
func (e *obsEnv) finish() error {
	defer func() {
		if e.srv != nil {
			_ = e.srv.Close()
		}
	}()
	if e.sink != nil {
		err := e.sink.Close()
		fmt.Printf("trace: %d events exported, %d dropped\n", e.sink.Written(), e.sink.Dropped())
		if e.sinkFile != nil {
			if cerr := e.sinkFile.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("trace export: %w", err)
		}
	}
	if e.report == "" {
		return nil
	}
	if e.world == nil {
		return fmt.Errorf("-report: scenario %q does not expose its world", e.scenario)
	}
	rep := emulator.Report{Scenario: e.scenario, Rollups: e.rollups, Final: e.world.Rollup()}
	w := io.Writer(os.Stdout)
	if e.report != "-" {
		f, err := os.Create(e.report)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		w = f
	}
	return rep.WriteJSON(w)
}

// meetingScenario runs the Co-Fields meeting application: three users
// descend each other's summed fields until they gather.
func meetingScenario(rounds int, env *obsEnv) error {
	g := topology.Grid(9, 9, 1)
	users := []tuple.NodeID{"userA", "userB", "userC"}
	starts := []space.Point{{X: 0.5, Y: 0.5}, {X: 7.5, Y: 0.5}, {X: 3.5, Y: 7.5}}
	for i, id := range users {
		g.SetPosition(id, starts[i])
	}
	g.Recompute(1.2)
	cfg := emulator.Config{Graph: g, RadioRange: 1.2}
	env.applyTrace(&cfg)
	world := emulator.New(cfg)
	if err := env.attach(world); err != nil {
		return err
	}
	m, err := meeting.New(world, users, meeting.Config{
		Speed:  0.5,
		Bounds: space.Rect{Max: space.Point{X: 8, Y: 8}},
	})
	if err != nil {
		return err
	}
	env.settle(world, 100000)
	mark := func(id tuple.NodeID) rune {
		for i, u := range users {
			if u == id {
				return rune('A' + i)
			}
		}
		return 0
	}
	fmt.Printf("before (spread %.0f hops):\n%s\n", m.Spread(), world.Render(40, 10, mark))
	m.Run(rounds, 1, 100000)
	fmt.Printf("after %d rounds (spread %.0f hops):\n%s", rounds, m.Spread(), world.Render(40, 10, mark))
	return nil
}

// gradientScenario injects a hop-count field at the grid center and
// prints the resulting structure of space as digits. With -fault it
// then drives the emulator clock through the seeded fault plan —
// suspicion, pull backoff and quarantine enabled — and renders the
// repaired structure.
func gradientScenario(w, h int, trace bool, faultSpec string, ticks int, env *obsEnv) error {
	var plan fault.Plan
	if faultSpec != "" {
		var err error
		if plan, err = fault.ParsePlan(faultSpec); err != nil {
			return err
		}
	}
	g := topology.Grid(w, h, 1)
	cfg := emulator.Config{Graph: g}
	var printTracers []core.Tracer
	if trace {
		printTracers = append(printTracers, func(ev core.TraceEvent) {
			fmt.Println("  trace:", ev)
		})
	}
	env.applyTrace(&cfg, printTracers...)
	if faultSpec != "" {
		cfg.RefreshEvery = 2
		cfg.Seed = 1
		cfg.NodeOptions = append(cfg.NodeOptions,
			core.WithSuspicion(2), core.WithPullBackoff(6), core.WithQuarantine(8, 16))
	}
	world := emulator.New(cfg)
	if err := env.attach(world); err != nil {
		return err
	}
	src := topology.NodeName(h/2*w + w/2)
	if _, err := world.Node(src).Inject(pattern.NewGradient("demo")); err != nil {
		return err
	}
	rounds := env.settle(world, 100000)
	fmt.Printf("gradient injected at %s; settled in %d rounds, %d radio sends\n\n",
		src, rounds, world.Sim().Stats().Sent)
	if faultSpec != "" {
		fault.New(world, plan)
		if ticks <= 0 {
			ticks = plan.MaxTick() + 8
		}
		for i := 0; i < ticks; i++ {
			world.Tick(1)
			if env.dash > 0 && (i+1)%env.dash == 0 {
				fmt.Println(world.Rollup().Dashboard())
			}
		}
		world.Settle(100000)
		fmt.Printf("fault plan complete after %d ticks: %s\n\n", ticks, world.Rollup().Dashboard())
	}
	fmt.Println(world.Render(4*w, 2*h, func(id tuple.NodeID) rune {
		ts := world.Node(id).Read(pattern.ByName(pattern.KindGradient, "demo"))
		if len(ts) == 0 {
			return '?'
		}
		v := int(ts[0].(tuple.Maintained).Value())
		if v > 9 {
			return '+'
		}
		return rune('0' + v)
	}))
	meanAbs, missing, extra := world.GradientError(pattern.KindGradient, "demo", src, math.Inf(1))
	fmt.Printf("structure error vs BFS oracle: mean=%.3f missing=%d extra=%d\n", meanAbs, missing, extra)
	return nil
}

// aggregateScenario stores one numeric reading per node, injects SUM /
// AVG / COUNT convergecast queries at the corner and drives refresh
// epochs until the pipelined results reach the exact oracle, printing
// the source's view after each epoch.
func aggregateScenario(w, h int, epochs int, env *obsEnv) error {
	g := topology.Grid(w, h, 1)
	cfg := emulator.Config{Graph: g, RefreshEvery: 1, Seed: 1}
	env.applyTrace(&cfg)
	world := emulator.New(cfg)
	if err := env.attach(world); err != nil {
		return err
	}
	reading := func(i int) float64 { return float64(i%9 + 1) }
	oracle := 0.0
	for i := 0; i < w*h; i++ {
		if _, err := world.Node(topology.NodeName(i)).Inject(pattern.NewLocal("reading", tuple.F("v", reading(i)))); err != nil {
			return err
		}
		oracle += reading(i)
	}
	sel := tuple.Selector{Kind: pattern.KindLocal, Name: "reading", Field: "v"}
	src := topology.NodeName(0)
	ids := map[string]tuple.ID{}
	for _, op := range []agg.Op{agg.Sum, agg.Avg, agg.Count} {
		id, err := world.Node(src).Inject(agg.NewQuery("demo-"+op.String(), op, sel))
		if err != nil {
			return err
		}
		ids[op.String()] = id
	}
	rounds := env.settle(world, 100000)
	fmt.Printf("%d readings stored; queries injected at %s; field settled in %d rounds\n\n",
		w*h, src, rounds)
	if epochs <= 0 {
		epochs = w + h + 4
	}
	for e := 1; e <= epochs; e++ {
		world.RefreshAll()
		env.settle(world, 100000)
		line := fmt.Sprintf("epoch %2d:", e)
		for _, op := range []string{"sum", "avg", "count"} {
			if r, ok := world.Node(src).AggResult(ids[op]); ok {
				line += fmt.Sprintf("  %s=%g", op, r.Value())
			} else {
				line += fmt.Sprintf("  %s=?", op)
			}
		}
		fmt.Println(line)
	}
	fmt.Println()
	fmt.Println(world.Render(4*w, 2*h, func(id tuple.NodeID) rune {
		ts := world.Node(id).Read(pattern.ByName(pattern.KindLocal, "reading"))
		if len(ts) == 0 {
			return '?'
		}
		if v, ok := sel.Sample(ts[0]); ok {
			return rune('0' + int(v))
		}
		return '?'
	}))
	final, _ := world.Node(src).AggResult(ids["sum"])
	st := world.TotalStats()
	fmt.Printf("final sum=%g (oracle %g) after %d epochs; partials sent=%d combined=%d\n",
		final.Value(), oracle, epochs, st.PartialsOut, st.PartialsCombined)
	return nil
}

// scaleScenario is the headline 100k-node run from the CLI: a gradient
// settled over a jittered grid, then a few mobility ticks — the same
// deterministic pipeline as experiment E15, so the published numbers
// are reproducible with one command.
func scaleScenario(nodes, ticks int) error {
	if nodes < 2 {
		return fmt.Errorf("-nodes must be at least 2, got %d", nodes)
	}
	if ticks <= 0 {
		ticks = 3
	}
	fmt.Printf("settling one gradient over %d nodes...\n", nodes)
	r := experiment.RunE15N(nodes, ticks)
	fmt.Printf("built %d nodes / %d edges in %.2fs\n", r.Nodes, r.Edges, r.BuildSec)
	fmt.Printf("settled in %d rounds / %.2fs (%.1f rounds/s), %d radio sends\n",
		r.Rounds, r.SettleSec, r.RoundsPerSec, r.Msgs)
	fmt.Printf("gradient vs BFS oracle: mean=%.3f missing=%d extra=%d\n",
		r.GradErr, r.Missing, r.Extra)
	fmt.Printf("mobility: %.1f ms/tick over %d ticks (1%% of nodes mobile)\n",
		r.TickSec*1000, ticks)
	fmt.Printf("peak RSS: %.1f MiB (%.0f bytes/node)\n",
		r.PeakRSSMB, r.PeakRSSMB*(1<<20)/float64(r.Nodes))
	if r.GradErr != 0 || r.Missing != 0 || r.Extra != 0 {
		return fmt.Errorf("gradient did not settle to the oracle")
	}
	return nil
}

// flockScenario reproduces the Fig. 3 snapshot: '#' marks flocking
// agents before and after coordination.
func flockScenario(rounds int) error {
	before, after, err := experiment.RenderFlockSnapshot(3, 3, rounds)
	if err != nil {
		return err
	}
	fmt.Println("before coordination ('#' = flocking agents, 'o' = MANET nodes):")
	fmt.Println(before)
	fmt.Printf("after %d coordination rounds:\n", rounds)
	fmt.Println(after)
	return nil
}

// routingScenario advertises a destination and routes a message to it,
// showing which nodes relayed.
func routingScenario(w, h int, env *obsEnv) error {
	g := topology.Grid(w, h, 1)
	cfg := emulator.Config{Graph: g}
	env.applyTrace(&cfg)
	world := emulator.New(cfg)
	if err := env.attach(world); err != nil {
		return err
	}
	dst := topology.NodeName(0)
	src := topology.NodeName(2*w + 2) // (2,2): the descent region is a corner patch
	rDst := routing.NewRouter(world.Node(dst))
	if _, err := rDst.Advertise(); err != nil {
		return err
	}
	env.settle(world, 100000)
	structSends := world.Sim().Stats().Sent
	world.Sim().ResetStats()

	if err := routing.NewRouter(world.Node(src)).Send(dst, tuple.S("body", "hello")); err != nil {
		return err
	}
	env.settle(world, 100000)
	msgs := rDst.Inbox()
	fmt.Printf("overlay structure: %d sends; message: %d sends; delivered: %d\n",
		structSends, world.Sim().Stats().Sent, len(msgs))
	for _, m := range msgs {
		fmt.Printf("  %s -> %s: %v\n", m.From, m.To, m.Body)
	}
	fmt.Println()
	fmt.Println(world.Render(4*w, 2*h, func(id tuple.NodeID) rune {
		switch id {
		case src:
			return 'S'
		case dst:
			return 'D'
		}
		if world.Node(id).Stats().PacketsIn > 0 {
			return '+'
		}
		return 0
	}))
	return nil
}
