package tota_test

import (
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"tota/internal/core"
	"tota/internal/emulator"
	"tota/internal/experiment"
	"tota/internal/obs"
	"tota/internal/pattern"
	"tota/internal/topology"
	"tota/internal/tuple"
	"tota/internal/wire"
)

// The BenchmarkE* functions regenerate each experiment of the paper
// reproduction (see EXPERIMENTS.md); the reported custom metrics are
// the headline numbers of each table. Run cmd/tota-bench for the full
// paper-shaped tables.

func benchExperiment(b *testing.B, run func(experiment.Scale) *experiment.Result, keys ...string) {
	b.Helper()
	var res *experiment.Result
	for i := 0; i < b.N; i++ {
		res = run(experiment.Quick)
	}
	if res == nil {
		b.Fatal("no result")
	}
	for _, k := range keys {
		if v, ok := res.Metrics[k]; ok {
			// Metric units must not contain whitespace or commas.
			unit := strings.NewReplacer(" ", "_", ",", "").Replace(k)
			b.ReportMetric(v, unit)
		}
	}
}

func BenchmarkE1Propagation(b *testing.B) {
	benchExperiment(b, experiment.RunE1, "rounds_grid 10x10", "coverage_grid 10x10")
}

func BenchmarkE2Maintenance(b *testing.B) {
	benchExperiment(b, experiment.RunE2, "repair_rounds_link removal", "repair_msgs_link removal")
}

func BenchmarkE3Routing(b *testing.B) {
	benchExperiment(b, experiment.RunE3, "sends_gradient_v0", "sends_flood_v0")
}

func BenchmarkE4GatherPush(b *testing.B) {
	benchExperiment(b, experiment.RunE4, "walkratio_scope_inf")
}

func BenchmarkE5GatherQuery(b *testing.B) {
	benchExperiment(b, experiment.RunE5, "answers_scope_inf")
}

func BenchmarkE6Flocking(b *testing.B) {
	benchExperiment(b, experiment.RunE6, "final_2 agents, X=3")
}

func BenchmarkE7Scalability(b *testing.B) {
	benchExperiment(b, experiment.RunE7, "msgs_per_node_grid 10x10_sinf")
}

func BenchmarkE8UDPTransport(b *testing.B) {
	benchExperiment(b, experiment.RunE8, "propagation_ms_4")
}

func BenchmarkE9API(b *testing.B) {
	benchExperiment(b, experiment.RunE9, "readone_us_100")
}

func BenchmarkE10Overlay(b *testing.B) {
	benchExperiment(b, experiment.RunE10, "rounds_per_key_n32_f0", "rounds_per_key_n32_f4")
}

func BenchmarkE11Meeting(b *testing.B) {
	benchExperiment(b, experiment.RunE11, "final_3")
}

func BenchmarkE12Gossip(b *testing.B) {
	benchExperiment(b, experiment.RunE12, "coverage_grid 10x10_p0.500")
}

func BenchmarkE13Chaos(b *testing.B) {
	benchExperiment(b, experiment.RunE13,
		"overhead_per_heal_combined chaos", "repair_epochs_combined chaos")
}

func BenchmarkA1Ablations(b *testing.B) {
	benchExperiment(b, experiment.RunA1,
		"teardown_msgs_full engine", "teardown_msgs_no poisoned reverse")
}

func BenchmarkA2RefreshVsLoss(b *testing.B) {
	benchExperiment(b, experiment.RunA2, "err_l0.300_p0", "err_l0.300_p5")
}

// Micro-benchmarks of the hot paths underlying every experiment.

func BenchmarkTupleEncode(b *testing.B) {
	g := pattern.NewGradient("bench", tuple.S("payload", "some description"))
	g.SetID(tuple.ID{Node: "n0001", Seq: 9})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tuple.Encode(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTupleDecode(b *testing.B) {
	g := pattern.NewGradient("bench", tuple.S("payload", "some description"))
	g.SetID(tuple.ID{Node: "n0001", Seq: 9})
	data, err := tuple.Encode(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tuple.Decode(tuple.DefaultRegistry, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireRoundTrip(b *testing.B) {
	g := pattern.NewGradient("bench")
	g.SetID(tuple.ID{Node: "n0001", Seq: 9})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := wire.Encode(wire.Message{Type: wire.MsgTuple, Tuple: g})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.Decode(tuple.DefaultRegistry, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalInject(b *testing.B) {
	w := emulator.New(emulator.Config{Graph: topology.Line(1)})
	n := w.Node(topology.NodeName(0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := n.Inject(pattern.NewLocal("x", tuple.I("v", int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadSelective(b *testing.B) {
	w := emulator.New(emulator.Config{Graph: topology.Line(1)})
	n := w.Node(topology.NodeName(0))
	for i := 0; i < 1000; i++ {
		if _, err := n.Inject(pattern.NewLocal(fmt.Sprintf("item%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	tpl := pattern.ByName(pattern.KindLocal, "item500")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := n.Read(tpl); len(got) != 1 {
			b.Fatal("missing tuple")
		}
	}
}

func BenchmarkGradientBuild10x10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := emulator.New(emulator.Config{Graph: topology.Grid(10, 10, 1)})
		if _, err := w.Node(topology.NodeName(0)).Inject(pattern.NewGradient("f")); err != nil {
			b.Fatal(err)
		}
		w.Settle(100000)
	}
}

func BenchmarkGradientRepair(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w := emulator.New(emulator.Config{Graph: topology.Grid(8, 8, 1)})
		if _, err := w.Node(topology.NodeName(0)).Inject(pattern.NewGradient("f")); err != nil {
			b.Fatal(err)
		}
		w.Settle(100000)
		b.StartTimer()
		w.RemoveEdge(topology.NodeName(1), topology.NodeName(9))
		w.Settle(100000)
		b.StopTimer()
		if meanAbs, missing, extra := w.GradientError(pattern.KindGradient, "f", topology.NodeName(0), math.Inf(1)); meanAbs != 0 || missing != 0 || extra != 0 {
			b.Fatal("repair did not converge")
		}
		b.StartTimer()
	}
}

// BenchmarkSettleGrid400 measures full gradient propagation on a
// 20x20 grid: world construction, injection and the settle wave.
func BenchmarkSettleGrid400(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := emulator.New(emulator.Config{Graph: topology.Grid(20, 20, 1)})
		if _, err := w.Node(topology.NodeName(0)).Inject(pattern.NewGradient("f")); err != nil {
			b.Fatal(err)
		}
		w.Settle(100000)
	}
}

// BenchmarkRefreshEpoch2500 runs anti-entropy epochs over a settled
// 2.5k-node jittered world (the E15 fixture): each op is one refresh
// pass over every node plus the drain to quiescence.
func BenchmarkRefreshEpoch2500(b *testing.B) {
	w := experiment.NewScaleWorld(2_500, 0)
	if _, err := w.Node(topology.NodeName(0)).Inject(pattern.NewGradient("f")); err != nil {
		b.Fatal(err)
	}
	w.Settle(1000000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RefreshAll()
		w.Settle(1000000)
	}
}

// BenchmarkE15Scale runs the Quick (1k-node) scale experiment.
func BenchmarkE15Scale(b *testing.B) {
	benchExperiment(b, experiment.RunE15,
		"rounds_n1024", "rounds_per_sec_n1024", "peak_rss_mb")
}

// BenchmarkE16Mem runs the Quick (1k-node) memory experiment: live
// heap per node for a settled gradient world.
func BenchmarkE16Mem(b *testing.B) {
	benchExperiment(b, experiment.RunE16,
		"heap_per_node_n1024", "peak_rss_mb")
}

// BenchmarkE16Scale250k is the CI scale smoke for the columnar engine
// state (run with -benchtime 1x): one gradient settled over 250k nodes
// must match the BFS oracle exactly and stay inside the
// bytes-per-node budget. The peak_rss_bytes and bytes_per_node metrics
// feed the BENCH_TRAJECTORY.json footprint history via
// scripts/bench.sh; note VmHWM is process-wide, so the figure is only
// a per-run isolate when the benchmark runs in a fresh process.
func BenchmarkE16Scale250k(b *testing.B) {
	// budget is bytes/node of peak RSS. Measured: 4864 B/node at 250k
	// inside the test binary (the 100k tota-emu point runs ~4550 — a
	// test process carries more resident baseline, and the 1.2× GC
	// ceiling amplifies it). 5 KiB leaves ~5% headroom while still
	// failing on any regression toward the pre-columnar ~9 KiB/node.
	const budget = 5_120
	for i := 0; i < b.N; i++ {
		r := experiment.RunE16N(250_000)
		if r.GradErr != 0 || r.Missing != 0 || r.Extra != 0 {
			b.Fatalf("oracle mismatch at 250k nodes: err=%v missing=%d extra=%d",
				r.GradErr, r.Missing, r.Extra)
		}
		if r.RSSPerNode > budget {
			b.Fatalf("peak RSS = %.0f bytes/node, budget %d", r.RSSPerNode, budget)
		}
		b.ReportMetric(r.PeakRSSMB*(1<<20), "peak_rss_bytes")
		b.ReportMetric(r.RSSPerNode, "bytes_per_node")
		b.ReportMetric(r.HeapPerNode, "heap_bytes_per_node")
	}
}

// BenchmarkRefreshSteadyState measures the anti-entropy pass on a
// settled 10x10 gradient world. With digest suppression a converged
// epoch sends one compact digest per node instead of re-broadcasting
// full tuples, so the benchmark is dominated by digest encode/decode.
func BenchmarkRefreshSteadyState(b *testing.B) {
	w := emulator.New(emulator.Config{Graph: topology.Grid(10, 10, 1)})
	if _, err := w.Node(topology.NodeName(0)).Inject(pattern.NewGradient("f")); err != nil {
		b.Fatal(err)
	}
	w.Settle(100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RefreshAll()
		w.Settle(100000)
	}
}

// BenchmarkRefreshSteadyState100 is the sub-linearity probe: 100 nodes
// holding eight converged gradients each. Per-epoch broadcasts must
// stay at one digest frame per node regardless of how many structures
// are stored; the reported broadcasts/op and suppressed_ratio make the
// claim visible in bench output.
func BenchmarkRefreshSteadyState100(b *testing.B) {
	w := emulator.New(emulator.Config{Graph: topology.Grid(10, 10, 1)})
	for i, src := range []int{0, 9, 33, 45, 57, 66, 81, 99} {
		g := pattern.NewGradient(fmt.Sprintf("f%d", i))
		if _, err := w.Node(topology.NodeName(src)).Inject(g); err != nil {
			b.Fatal(err)
		}
	}
	w.Settle(100000)
	// Warm-up epoch: first refresh may full-announce tuples whose bytes
	// were never refresh-broadcast; afterwards digests take over.
	w.RefreshAll()
	w.Settle(100000)
	before := w.TotalStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RefreshAll()
		w.Settle(100000)
	}
	b.StopTimer()
	after := w.TotalStats()
	n := float64(b.N)
	b.ReportMetric(float64(after.Broadcasts-before.Broadcasts)/n, "broadcasts/op")
	ann := after.RefreshAnnounced - before.RefreshAnnounced
	supp := after.RefreshSuppressed - before.RefreshSuppressed
	if total := ann + supp; total > 0 {
		b.ReportMetric(float64(supp)/float64(total), "suppressed_ratio")
	}
}

// BenchmarkRefreshSteadyState100x1k is the heavy-store variant of the
// sub-linearity probe: 100 nodes each holding 1,000 converged
// gradients. Steady-state epochs still suppress every re-announcement,
// but each node's digest now lists 1k (id, ver) entries across several
// frames; the reported digest_bytes/op is the per-epoch wire cost of
// that census — the baseline the ROADMAP's set-reconciliation item
// must beat.
func BenchmarkRefreshSteadyState100x1k(b *testing.B) {
	w := emulator.New(emulator.Config{Graph: topology.Grid(10, 10, 1)})
	for i := 0; i < 1_000; i++ {
		g := pattern.NewGradient(fmt.Sprintf("f%d", i))
		if _, err := w.Node(topology.NodeName(i % 100)).Inject(g); err != nil {
			b.Fatal(err)
		}
	}
	w.Settle(10_000_000)
	// Warm-up epoch: first refresh may full-announce tuples whose bytes
	// were never refresh-broadcast; afterwards digests take over.
	w.RefreshAll()
	w.Settle(10_000_000)
	before := w.Sim().Stats()
	beforeStats := w.TotalStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RefreshAll()
		w.Settle(10_000_000)
	}
	b.StopTimer()
	after := w.Sim().Stats()
	afterStats := w.TotalStats()
	n := float64(b.N)
	b.ReportMetric(float64(after.PayloadBytes-before.PayloadBytes)/n, "digest_bytes/op")
	b.ReportMetric(float64(after.Broadcasts-before.Broadcasts)/n, "broadcasts/op")
	ann := afterStats.RefreshAnnounced - beforeStats.RefreshAnnounced
	supp := afterStats.RefreshSuppressed - beforeStats.RefreshSuppressed
	if total := ann + supp; total > 0 {
		b.ReportMetric(float64(supp)/float64(total), "suppressed_ratio")
	}
}

func BenchmarkHandlePacket(b *testing.B) {
	// Cost of one engine packet: decode + dedup + drop.
	n, data := newHandlePacketWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.HandlePacket(topology.NodeName(1), data)
	}
}

// BenchmarkHandlePacketRobust prices the graceful-degradation features
// (suspicion hysteresis, pull backoff, corrupt-source quarantine) on the
// packet hot path. The allocs/op column must match BenchmarkHandlePacket
// exactly: robustness bookkeeping lives in per-copy state and fixed-size
// per-source tables, never in per-packet allocations (see DESIGN.md §9).
func BenchmarkHandlePacketRobust(b *testing.B) {
	n, data := newHandlePacketWorld(b,
		core.WithSuspicion(2), core.WithPullBackoff(6), core.WithQuarantine(8, 16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.HandlePacket(topology.NodeName(1), data)
	}
}

// TestHandlePacketRobustAllocs is the robustness alloc-regression guard:
// enabling suspicion, pull backoff and quarantine must add zero
// allocations per packet over the plain engine.
func TestHandlePacketRobustAllocs(t *testing.T) {
	measure := func(opts ...core.Option) float64 {
		n, data := newHandlePacketWorld(t, opts...)
		return testing.AllocsPerRun(200, func() {
			n.HandlePacket(topology.NodeName(1), data)
		})
	}
	base := measure()
	robust := measure(core.WithSuspicion(2), core.WithPullBackoff(6), core.WithQuarantine(8, 16))
	if robust > base {
		t.Errorf("robustness features cost %.1f allocs/packet over the %.1f baseline (budget: 0)",
			robust-base, base)
	}
}

// newHandlePacketWorld builds the BenchmarkHandlePacket fixture: a
// 2-node world and a pre-encoded duplicate gradient packet, so each
// HandlePacket call exercises decode + dedup + drop.
func newHandlePacketWorld(tb testing.TB, opts ...core.Option) (*core.Node, []byte) {
	tb.Helper()
	w := emulator.New(emulator.Config{Graph: topology.Line(2), NodeOptions: opts})
	n := w.Node(topology.NodeName(0))
	g := pattern.NewGradient("f")
	g.SetID(tuple.ID{Node: "other", Seq: 1})
	g.Val = 1
	data, err := wire.Encode(wire.Message{Type: wire.MsgTuple, Hop: 1, Tuple: g})
	if err != nil {
		tb.Fatal(err)
	}
	return n, data
}

// BenchmarkObsOverhead prices the telemetry subsystem on the packet hot
// path. "baseline" is BenchmarkHandlePacket unchanged; "metrics" adds a
// registry scraping the node's counters (must cost nothing per packet —
// the registry reads component-owned atomics at scrape time only);
// "latencies" adds the trace-derived latency tracker; "jsonl" adds the
// full JSONL export sink.
func BenchmarkObsOverhead(b *testing.B) {
	run := func(b *testing.B, opts ...core.Option) {
		n, data := newHandlePacketWorld(b, opts...)
		reg := obs.NewRegistry()
		obs.RegisterNodeStats(reg, n.Stats)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.HandlePacket(topology.NodeName(1), data)
		}
	}
	b.Run("baseline", func(b *testing.B) {
		n, data := newHandlePacketWorld(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.HandlePacket(topology.NodeName(1), data)
		}
	})
	b.Run("metrics", func(b *testing.B) {
		run(b)
	})
	b.Run("latencies", func(b *testing.B) {
		lat := obs.NewLatencies(nil, nil, obs.RoundBuckets)
		run(b, core.WithTracer(lat.Tracer()))
	})
	b.Run("jsonl", func(b *testing.B) {
		sink := obs.NewJSONLSink(io.Discard, nil, nil, 0)
		defer func() { _ = sink.Close() }()
		run(b, core.WithTracer(sink.Tracer()))
	})
}

// TestHandlePacketTelemetryAllocs is the PR's alloc-regression guard:
// with the metrics registry bound and the latency tracker tracing,
// the packet path may cost at most one extra allocation per packet
// over the uninstrumented engine. It also covers the trace-context
// path: with sampling off the hot path must not move at all, and
// decoding a version-2 traced announcement must cost zero extra
// allocations (the 16-byte context parses into scratch fields).
func TestHandlePacketTelemetryAllocs(t *testing.T) {
	measure := func(frame []byte, opts ...core.Option) float64 {
		n, data := newHandlePacketWorld(t, opts...)
		if frame != nil {
			data = frame
		}
		reg := obs.NewRegistry()
		obs.RegisterNodeStats(reg, n.Stats)
		return testing.AllocsPerRun(200, func() {
			n.HandlePacket(topology.NodeName(1), data)
		})
	}
	base := measure(nil)
	if base != 7 {
		t.Errorf("uninstrumented HandlePacket = %.1f allocs/op, want 7", base)
	}
	lat := obs.NewLatencies(nil, nil, obs.RoundBuckets)
	instrumented := measure(nil, core.WithTracer(lat.Tracer()))
	if instrumented > base+1 {
		t.Errorf("telemetry costs %.1f allocs/packet over the %.1f baseline (budget: 1)",
			instrumented-base, base)
	}

	// Sampling off is the shipped default: the knob being present (with
	// a tracer attached) must not add a single allocation.
	lat2 := obs.NewLatencies(nil, nil, obs.RoundBuckets)
	samplingOff := measure(nil, core.WithTracer(lat2.Tracer()), core.WithTraceSampling(0))
	if samplingOff > base+1 {
		t.Errorf("sampling-off path costs %.1f allocs/packet over the %.1f baseline (budget: 1)",
			samplingOff-base, base)
	}

	// A version-2 frame carrying a trace context: the 16 extra bytes
	// decode into value fields, so handling stays at the baseline even
	// though every event now carries span identity.
	g := pattern.NewGradient("f")
	g.SetID(tuple.ID{Node: "other", Seq: 1})
	g.Val = 1
	tracedFrame, err := wire.Encode(wire.Message{Type: wire.MsgTuple, Hop: 1, Tuple: g,
		Trace: wire.TraceCtx{TraceID: 0xabc, Span: 0xdef}})
	if err != nil {
		t.Fatal(err)
	}
	traced := measure(tracedFrame)
	if traced > base {
		t.Errorf("traced packet costs %.1f allocs/packet over the %.1f baseline (budget: 0)",
			traced-base, base)
	}
	lat3 := obs.NewLatencies(nil, nil, obs.RoundBuckets)
	tracedInstrumented := measure(tracedFrame, core.WithTracer(lat3.Tracer()), core.WithTraceSampling(1))
	if tracedInstrumented > base+1 {
		t.Errorf("traced+instrumented packet costs %.1f allocs/packet over the %.1f baseline (budget: 1)",
			tracedInstrumented-base, base)
	}
}
