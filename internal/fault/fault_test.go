package fault_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"tota/internal/core"
	"tota/internal/emulator"
	"tota/internal/fault"
	"tota/internal/mobility"
	"tota/internal/pattern"
	"tota/internal/space"
	"tota/internal/topology"
	"tota/internal/tuple"
)

func TestParsePlanGrammar(t *testing.T) {
	plan, err := fault.ParsePlan(
		"crash@50-70:n5; loss@10-30:0.4; partition@20-40:n0,n1;" +
			"linkloss@10-20:a,b,0.9; linkdelay@10-20:a,b,3,2;" +
			"delay@10-20:3; corrupt@15-25:0.05; dup@5-15:0.2; pause@5-9:n3,n4;" +
			"loss@100:0.5")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if len(plan.Events) != 10 {
		t.Fatalf("parsed %d events, want 10", len(plan.Events))
	}
	if !sort.SliceIsSorted(plan.Events, func(i, j int) bool {
		return plan.Events[i].From < plan.Events[j].From
	}) {
		t.Error("events not sorted by From")
	}
	if got := plan.MaxTick(); got != 100 {
		t.Errorf("MaxTick = %d, want 100", got)
	}
	byKind := make(map[fault.Kind]fault.Event)
	for _, e := range plan.Events {
		if e.Kind != fault.Loss { // two loss events; keep the windowed one
			byKind[e.Kind] = e
		} else if e.Until != 0 {
			byKind[e.Kind] = e
		}
	}
	if e := byKind[fault.Loss]; e.From != 10 || e.Until != 30 || e.P != 0.4 {
		t.Errorf("loss event = %+v", e)
	}
	if e := byKind[fault.Partition]; len(e.Nodes) != 2 || e.Nodes[0] != "n0" || e.Nodes[1] != "n1" {
		t.Errorf("partition event = %+v", e)
	}
	if e := byKind[fault.LinkLoss]; len(e.Nodes) != 2 || e.Nodes[0] != "a" || e.Nodes[1] != "b" || e.P != 0.9 {
		t.Errorf("linkloss event = %+v", e)
	}
	if e := byKind[fault.LinkDelay]; e.Rounds != 3 || e.Jitter != 2 {
		t.Errorf("linkdelay event = %+v", e)
	}
	if e := byKind[fault.Crash]; e.From != 50 || e.Until != 70 || len(e.Nodes) != 1 || e.Nodes[0] != "n5" {
		t.Errorf("crash event = %+v", e)
	}
	// The unwindowed event never heals.
	for _, e := range plan.Events {
		if e.Kind == fault.Loss && e.From == 100 && e.Until != 0 {
			t.Errorf("unwindowed loss got Until = %d", e.Until)
		}
	}
}

func TestParsePlanRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"loss10-30:0.4",        // missing @
		"loss@10-30",           // missing args
		"meteor@10-30:0.4",     // unknown kind
		"loss@-1-30:0.4",       // negative from
		"loss@30-10:0.4",       // until <= from
		"loss@10-30:1.5",       // probability out of range
		"loss@10-30:0.4,0.5",   // too many args
		"delay@10-30:0",        // rounds < 1
		"partition@10-30:",     // empty node list
		"linkloss@10-30:a,0.5", // missing peer
		"linkdelay@1-2:a,b,3",  // missing jitter
		"crash@x-30:n1",        // non-numeric tick
	} {
		if _, err := fault.ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted a bad spec", spec)
		}
	}
}

// lineWorld builds a scripted-topology (no radio range) line world with
// per-tick anti-entropy, converged on one infinite gradient from node 0.
func lineWorld(t *testing.T, n int) (*emulator.World, tuple.NodeID) {
	t.Helper()
	w := emulator.New(emulator.Config{
		Graph:        topology.Line(n),
		RefreshEvery: 1,
		Seed:         11,
	})
	src := topology.NodeName(0)
	if _, err := w.Node(src).Inject(pattern.NewGradient("f")); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	w.Settle(100000)
	return w, src
}

func assertCoherent(t *testing.T, w *emulator.World, src tuple.NodeID, when string) {
	t.Helper()
	meanAbs, missing, extra := w.GradientError(pattern.KindGradient, "f", src, math.Inf(1))
	if meanAbs != 0 || missing != 0 || extra != 0 {
		t.Errorf("%s: structure incoherent: err=%v missing=%d extra=%d", when, meanAbs, missing, extra)
	}
}

// TestInjectorLossWindowActivatesAndHeals: a total-loss window drops
// every frame for exactly its ticks, then the baseline (lossless) radio
// returns and anti-entropy heals any damage.
func TestInjectorLossWindowActivatesAndHeals(t *testing.T) {
	w, src := lineWorld(t, 3)
	fault.New(w, fault.Plan{Events: []fault.Event{
		{Kind: fault.Loss, From: 2, Until: 5, P: 1},
	}})

	w.Tick(1) // tick 1: no fault yet
	pre := w.Sim().Stats()
	if pre.Dropped != 0 {
		t.Fatalf("lossless baseline dropped %d packets", pre.Dropped)
	}
	for i := 0; i < 3; i++ { // ticks 2,3,4: the window
		w.Tick(1)
	}
	during := w.Sim().Stats()
	if during.Dropped == 0 {
		t.Error("total-loss window dropped nothing (refresh traffic must exist each tick)")
	}
	w.Tick(1) // tick 5: heal fires before this tick's traffic
	w.Tick(1)
	after := w.Sim().Stats()
	if after.Dropped != during.Dropped {
		t.Errorf("drops continued after the heal: %d -> %d", during.Dropped, after.Dropped)
	}
	w.Settle(100000)
	assertCoherent(t, w, src, "after loss window")
}

// TestInjectorCrashRestartRejoins: crashing the middle of a line tears
// the far side's structure down; restarting it under the same ID with
// empty state must let anti-entropy rebuild everything.
func TestInjectorCrashRestartRejoins(t *testing.T) {
	w, src := lineWorld(t, 3)
	mid := topology.NodeName(1)
	fault.New(w, fault.Plan{Events: []fault.Event{
		{Kind: fault.Crash, From: 2, Until: 8, Nodes: []tuple.NodeID{mid}},
	}})

	for i := 0; i < 2; i++ {
		w.Tick(1)
	}
	if w.Node(mid) != nil {
		t.Fatal("node still present during its crash window")
	}
	if w.Graph().Len() != 2 {
		t.Fatalf("graph still has %d nodes during the crash", w.Graph().Len())
	}
	for i := 0; i < 10; i++ {
		w.Tick(1)
	}
	n := w.Node(mid)
	if n == nil {
		t.Fatal("node not restarted after its crash window")
	}
	if len(w.Graph().Neighbors(mid)) != 2 {
		t.Errorf("restarted node has %d links, want its 2 scripted links back", len(w.Graph().Neighbors(mid)))
	}
	w.Settle(100000)
	assertCoherent(t, w, src, "after crash/restart")
	// The restart really was state-loss + rejoin, not a freeze: the new
	// incarnation re-learned the gradient from scratch.
	if got := len(n.Read(pattern.ByName(pattern.KindGradient, "f"))); got != 1 {
		t.Errorf("restarted node holds %d copies of the gradient, want 1", got)
	}
}

// TestInjectorPartitionCutsSilentlyAndHeals: a partition window blocks
// cross-cut frames without neighbor events; after the heal the cut-off
// side catches back up.
func TestInjectorPartitionCutsSilentlyAndHeals(t *testing.T) {
	w, src := lineWorld(t, 4)
	far := []tuple.NodeID{topology.NodeName(2), topology.NodeName(3)}
	fault.New(w, fault.Plan{Events: []fault.Event{
		{Kind: fault.Partition, From: 1, Until: 6, Nodes: far},
	}})

	for i := 0; i < 4; i++ {
		w.Tick(1)
	}
	st := w.Sim().Stats()
	if st.Blocked == 0 {
		t.Error("partition blocked nothing despite per-tick refresh traffic")
	}
	// The far side still holds its (now unsupported-looking) copies or
	// has torn them down — either way no neighbor-down events fired: the
	// cut is silent, so support-based maintenance is what reacts, not
	// discovery. After the heal, coherence must return.
	for i := 0; i < 6; i++ {
		w.Tick(1)
	}
	w.Settle(100000)
	assertCoherent(t, w, src, "after partition heal")
}

// TestInjectorPauseStallsAndResumes: a paused node freezes (no refresh,
// no delivery, no expiry) while its links stay up, then resumes and
// catches up.
func TestInjectorPauseStallsAndResumes(t *testing.T) {
	w, src := lineWorld(t, 3)
	end := topology.NodeName(2)
	fault.New(w, fault.Plan{Events: []fault.Event{
		{Kind: fault.Pause, From: 1, Until: 5, Nodes: []tuple.NodeID{end}},
	}})

	w.Tick(1)
	if !w.Sim().Paused(end) {
		t.Fatal("node not paused inside its window")
	}
	inDuring := w.Node(end).Stats().PacketsIn
	for i := 0; i < 2; i++ {
		w.Tick(1)
	}
	if got := w.Node(end).Stats().PacketsIn; got != inDuring {
		t.Errorf("paused node still received packets (%d -> %d)", inDuring, got)
	}
	for i := 0; i < 4; i++ {
		w.Tick(1)
	}
	if w.Sim().Paused(end) {
		t.Fatal("node still paused after its window")
	}
	if got := w.Node(end).Stats().PacketsIn; got == inDuring {
		t.Error("resumed node never received the held/new traffic")
	}
	w.Settle(100000)
	assertCoherent(t, w, src, "after pause/resume")
}

// TestInjectorOverlappingWindowsHealLast: two overlapping total-loss
// windows — healing the first must NOT restore the radio while the
// second is still open.
func TestInjectorOverlappingWindowsHealLast(t *testing.T) {
	w, _ := lineWorld(t, 2)
	fault.New(w, fault.Plan{Events: []fault.Event{
		{Kind: fault.Loss, From: 1, Until: 4, P: 1},
		{Kind: fault.Loss, From: 2, Until: 7, P: 1},
	}})

	for i := 0; i < 4; i++ { // ticks 1-4: first window opens, overlaps, heals
		w.Tick(1)
	}
	atFirstHeal := w.Sim().Stats()
	w.Tick(1) // tick 5: second window still open — still total loss
	w.Tick(1) // tick 6
	stillCut := w.Sim().Stats()
	if got := stillCut.Delivered - atFirstHeal.Delivered; got != 0 {
		t.Errorf("%d packets delivered while the overlapping window was still open", got)
	}
	if stillCut.Dropped == atFirstHeal.Dropped {
		t.Error("no drops while the overlapping window was still open")
	}
	w.Tick(1) // tick 7: last window heals before traffic
	w.Tick(1)
	healed := w.Sim().Stats()
	if healed.Delivered == stillCut.Delivered {
		t.Error("radio never recovered after the last overlapping window healed")
	}
	if healed.Dropped != stillCut.Dropped {
		t.Errorf("drops continued after the last heal: %d -> %d", stillCut.Dropped, healed.Dropped)
	}
}

// TestInjectorCorruptWindowFeedsDecoder: corrupted frames reach the
// real wire decoder (DecodeErrors) instead of being silently dropped,
// and the structure survives.
func TestInjectorCorruptWindowFeedsDecoder(t *testing.T) {
	w, src := lineWorld(t, 3)
	fault.New(w, fault.Plan{Events: []fault.Event{
		{Kind: fault.Corrupt, From: 1, Until: 8, P: 1},
	}})
	for i := 0; i < 10; i++ {
		w.Tick(1)
	}
	if got := w.Sim().Stats().Corrupted; got == 0 {
		t.Fatal("corruption window corrupted nothing")
	}
	if got := w.TotalStats().DecodeErrors; got == 0 {
		t.Error("corrupted frames never reached the wire decoder")
	}
	w.Settle(100000)
	// The wire checksum makes corrupted frames undecodable, so recovery
	// must be exact: no residue from tampered values can enter the space.
	meanAbs, missing, extra := w.GradientError(pattern.KindGradient, "f", src, math.Inf(1))
	if meanAbs != 0 || missing != 0 || extra != 0 {
		t.Errorf("after corruption window: err=%v missing=%d extra=%d", meanAbs, missing, extra)
	}
}

// chaosPlan is a plan exercising every fault kind within 30 ticks.
func chaosPlan() fault.Plan {
	n := topology.NodeName
	return fault.Plan{Events: []fault.Event{
		{Kind: fault.Loss, From: 2, Until: 8, P: 0.5},
		{Kind: fault.Corrupt, From: 4, Until: 10, P: 0.3},
		{Kind: fault.Dup, From: 5, Until: 12, P: 0.4},
		{Kind: fault.LinkLoss, From: 6, Until: 14, Nodes: []tuple.NodeID{n(1), n(2)}, P: 0.9},
		{Kind: fault.LinkDelay, From: 6, Until: 14, Nodes: []tuple.NodeID{n(2), n(3)}, Rounds: 2, Jitter: 2},
		{Kind: fault.Delay, From: 9, Until: 13, Rounds: 3},
		{Kind: fault.Partition, From: 10, Until: 16, Nodes: []tuple.NodeID{n(4), n(5)}},
		{Kind: fault.Crash, From: 12, Until: 20, Nodes: []tuple.NodeID{n(7)}},
		{Kind: fault.Pause, From: 15, Until: 22, Nodes: []tuple.NodeID{n(8)}},
	}}
}

// fingerprint summarizes the full distributed state (every node's
// stored tuples) plus the summed engine and radio counters.
func fingerprint(w *emulator.World) string {
	var b strings.Builder
	for _, id := range w.Nodes() {
		ts := w.Node(id).Read(tuple.MatchAll())
		lines := make([]string, 0, len(ts))
		for _, t := range ts {
			lines = append(lines, fmt.Sprintf("%s|%s|%s", t.Kind(), t.ID(), t.Content()))
		}
		sort.Strings(lines)
		fmt.Fprintf(&b, "%s:{%s}\n", id, strings.Join(lines, ";"))
	}
	fmt.Fprintf(&b, "stats:%+v\n", w.TotalStats())
	fmt.Fprintf(&b, "radio:%+v\n", w.Sim().Stats())
	return b.String()
}

// runChaosScenario drives a mobile lossy world through the full fault
// matrix and returns its final fingerprint followed by every node's
// engine trace in node-id order.
func runChaosScenario(seed int64) string {
	var traceMu sync.Mutex
	traces := make(map[tuple.NodeID][]string)
	tracer := func(ev core.TraceEvent) {
		traceMu.Lock()
		traces[ev.Node] = append(traces[ev.Node], ev.String())
		traceMu.Unlock()
	}
	rng := rand.New(rand.NewSource(seed))
	g := topology.ConnectedRandomGeometric(24, 10, 3, rng, 100)
	if g == nil {
		return "no-layout"
	}
	w := emulator.New(emulator.Config{
		Graph:        g,
		RadioRange:   3,
		Loss:         0.1,
		RefreshEvery: 3,
		Seed:         seed,
		NodeOptions:  []core.Option{core.WithTracer(tracer)},
	})
	bounds := space.Rect{Max: space.Point{X: 10, Y: 10}}
	for i, id := range g.Nodes() {
		if i%4 == 0 && id != topology.NodeName(0) {
			p, _ := g.Position(id)
			w.SetMover(id, mobility.NewRandomWaypoint(p, bounds, 0.5, 1, 0, rng))
		}
	}
	fault.New(w, chaosPlan())
	if _, err := w.Node(topology.NodeName(0)).Inject(pattern.NewGradient("f")); err != nil {
		return "inject-failed"
	}
	for i := 0; i < 30; i++ {
		w.Tick(0.5)
	}
	w.Settle(100000)
	var b strings.Builder
	b.WriteString(fingerprint(w))
	ids := make([]tuple.NodeID, 0, len(traces))
	for id := range traces {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fmt.Fprintf(&b, "trace %s %d\n%s\n", id, len(traces[id]), strings.Join(traces[id], "\n"))
	}
	return b.String()
}

// TestFaultPlanDeterministic extends the emulator's
// same-seed-same-universe guarantee to active fault injection: with
// loss, corruption, duplication, link faults, delays, a partition, a
// crash/restart and a pause all firing, the final distributed state,
// every engine and radio counter and every node's trace are
// bit-identical across two runs of the same seed.
func TestFaultPlanDeterministic(t *testing.T) {
	first := runChaosScenario(99)
	if first == "no-layout" || first == "inject-failed" {
		t.Fatalf("scenario setup failed: %s", first)
	}
	if again := runChaosScenario(99); again != first {
		t.Fatal("same seed diverged under fault injection")
	}
	if other := runChaosScenario(100); other == first {
		t.Error("different seeds produced identical universes (suspicious)")
	}
}

// TestChaosGoldenDigest pins the chaos scenario to the output recorded
// when the radio still had a parallel delivery pool: the serial stepper
// must reproduce that universe bit for bit. Regenerate the digest only
// for an intended behavior change, and say so in the change log.
func TestChaosGoldenDigest(t *testing.T) {
	const want = "447035a0d767ef0860191704e5d6a0af87898d2ee78c1f1094b649166e2f6886"
	sum := sha256.Sum256([]byte(runChaosScenario(99)))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("digest = %s, want %s", got, want)
	}
}
