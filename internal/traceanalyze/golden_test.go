package traceanalyze

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tota/internal/core"
	"tota/internal/emulator"
	"tota/internal/fault"
	"tota/internal/obs"
	"tota/internal/pattern"
	"tota/internal/topology"
)

var update = flag.Bool("update", false, "regenerate testdata fixtures and goldens")

// generateE2JSONL runs the committed fixture scenario: an E2-style
// lossless propagation of one gradient over a 3×3 grid, full trace
// sampling, sink clock = radio rounds. Everything is seeded and
// wall-clock-free, so the stream is bit-stable.
func generateE2JSONL() string {
	var out strings.Builder
	var w *emulator.World
	sink := obs.NewJSONLSink(&out, nil, func() float64 { return float64(w.Sim().Rounds()) }, 1<<16)
	w = emulator.New(emulator.Config{
		Graph:        topology.Grid(3, 3, 1),
		RefreshEvery: 0,
		Seed:         42,
		NodeOptions: []core.Option{
			core.WithTracer(sink.Tracer()),
			core.WithTraceSampling(1),
		},
	})
	if _, err := w.Node(topology.NodeName(0)).Inject(pattern.NewGradient("e2")); err != nil {
		panic(err)
	}
	w.Settle(10000)
	if err := sink.Close(); err != nil {
		panic(err)
	}
	return out.String()
}

func readOrUpdate(t *testing.T, path, generated string) string {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(generated), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	return string(b)
}

// TestGoldenE2PropagationTree pins the whole pipeline end to end: the
// seeded run's JSONL stream, and the tree / critical-path / DOT
// renderings the analyzer derives from it. Run with -update after an
// intentional schema or engine change.
func TestGoldenE2PropagationTree(t *testing.T) {
	jsonl := generateE2JSONL()
	fixture := readOrUpdate(t, "testdata/e2.jsonl", jsonl)
	if jsonl != fixture {
		t.Errorf("live run diverged from committed fixture testdata/e2.jsonl (schema or engine change? re-run with -update)")
	}

	recs, err := ReadJSONL(strings.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(recs)
	if len(a.Flows) != 1 {
		t.Fatalf("flows = %d, want 1", len(a.Flows))
	}
	fl := a.Flows[0]
	if fl.Arrivals != 9 {
		t.Errorf("arrivals = %d, want all 9 grid nodes", fl.Arrivals)
	}
	if len(fl.Orphans) != 0 {
		t.Errorf("lossless run produced orphans: %+v", fl.Orphans)
	}

	var tree, crit, dot strings.Builder
	fl.WriteTree(&tree)
	fl.WriteCriticalPath(&crit)
	fl.WriteDOT(&dot)
	for _, tc := range []struct{ name, got string }{
		{"testdata/e2_tree.golden", tree.String()},
		{"testdata/e2_crit.golden", crit.String()},
		{"testdata/e2_dot.golden", dot.String()},
	} {
		if want := readOrUpdate(t, tc.name, tc.got); tc.got != want {
			t.Errorf("%s mismatch:\n--- want ---\n%s--- got ---\n%s", tc.name, want, tc.got)
		}
	}
}

// TestLossyLinkLocalization is the fault-plan acceptance check: under a
// seeded E13-style plan with one asymmetric lossy link, the analyzer's
// pull ranking must name that exact link first.
//
// The mechanism under test: the victim node keeps receiving the plain
// tuple's digest (occasionally) and never manages to consume the
// neighbor's full announcement across the lossy direction, so its
// anti-entropy pulls concentrate on that one link while healthy links
// go quiet after the initial propagation.
func TestLossyLinkLocalization(t *testing.T) {
	plan, err := fault.ParsePlan("linkloss@1:n0005,n0006,0.95")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	var w *emulator.World
	sink := obs.NewJSONLSink(&out, nil, func() float64 { return float64(w.Sim().Rounds()) }, 1<<18)
	w = emulator.New(emulator.Config{
		Graph:        topology.Grid(4, 4, 1),
		RefreshEvery: 1,
		Seed:         7,
		NodeOptions: []core.Option{
			core.WithTracer(sink.Tracer()),
			core.WithTraceSampling(1),
		},
	})
	fault.New(w, plan)
	if _, err := w.Node(topology.NodeName(0)).Inject(pattern.NewFlood("cargo")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		w.Tick(1)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if d := sink.Dropped(); d != 0 {
		t.Fatalf("sink shed %d events; widen the buffer", d)
	}

	recs, err := ReadJSONL(strings.NewReader(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	lossy := Analyze(recs).LossyLinks()
	if len(lossy) == 0 {
		t.Fatal("no pulls recorded; the fault plan had no observable effect")
	}
	want := Link{From: "n0005", To: "n0006"}
	if lossy[0].Link != want {
		t.Fatalf("top lossy link = %+v, want %s (full ranking: %+v)", lossy[0], want, lossy)
	}
	if lossy[0].Count < 3 {
		t.Errorf("top link pull count = %d, want a sustained signal (>=3)", lossy[0].Count)
	}
	// The signal must be concentrated: the faulted link strictly leads.
	if len(lossy) > 1 && lossy[1].Count >= lossy[0].Count {
		t.Errorf("faulted link does not strictly lead: %+v", lossy[:2])
	}
}
