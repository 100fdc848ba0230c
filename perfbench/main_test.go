package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"tota/internal/pattern"
	"tota/internal/topology"
)

// benchmarkFile is the repository's BENCHMARK.json, read relative to
// this package's directory.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMetricListsMatchBenchmarkFile keeps the program's metric tables
// and BENCHMARK.json in step.
func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	check := func(kind string, got []metricSpec, want []struct{ Name, Unit, Better string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program lists %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit || got[i].better != want[i].Better {
				t.Errorf("%s %d: program %+v, BENCHMARK.json %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", e2eMetrics, b.EndToEnd)
	check("per_layer", layerMetrics, b.PerLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no implementation", w.Name)
		}
	}
}

// smallOptions shrinks a workload so a smoke run takes seconds. The
// chain runs 3 s so its 1 s refresh tickers fire.
func smallOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 7, seconds: 3, trace: trace,
		spansDir: t.TempDir(), nodes: 400, subs: 40}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that every named metric appears with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkFile(t)
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := workloads[w.Name](smallOptions(t, w.Name, traced))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if err := res.finish(traced); err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, traced, m.Name, got, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d notes=%v", w.Name, traced, res.Correct, res.Attempted, res.notes)
			}
		}
	}
}

// TestResultLine checks the command's output contract: the last line is
// one JSON object with exactly correct, attempted, failed and metrics.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	var out, errb bytes.Buffer
	if err := run([]string{"--workload", "gw_fanout", "--seed", "3", "--seconds", "1"}, &out, &errb); err != nil {
		t.Fatal(err, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
		t.Fatal(err)
	}
	if len(obj) != 4 || obj["correct"] == nil || obj["attempted"] == nil || obj["failed"] == nil || obj["metrics"] == nil {
		t.Fatalf("result line has keys %v", obj)
	}
	if err := run([]string{"--workload", "nope"}, &out, &errb); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestDroppedEventCountsAsFailed plants a lost event: client 2 discards
// one arrival, and the run must count it as a failed operation.
func TestDroppedEventCountsAsFailed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	var dropped atomic.Int64
	opts := smallOptions(t, "gw_fanout", false)
	opts.dropEvent = func(k int64) bool { return dropped.CompareAndSwap(0, k) }
	res, err := runFanout(opts)
	if err != nil {
		t.Fatal(err)
	}
	if dropped.Load() == 0 {
		t.Fatal("no event was dropped")
	}
	if res.Failed < 1 {
		t.Fatalf("dropped event %d not counted: failed=%d attempted=%d", dropped.Load(), res.Failed, res.Attempted)
	}
}

// TestOracleMismatchFails plants a wrong field: one node loses its copy
// of a settled gradient, and the BFS oracle check must fail the run.
func TestOracleMismatchFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	opts := smallOptions(t, "emu_grid", false)
	opts.afterSettle = func(g *gridRun) {
		victim := g.w.Node(topology.NodeName(g.n / 3))
		if len(victim.Delete(pattern.ByName(pattern.KindGradient, g.names[0]))) != 1 {
			t.Error("planted fault removed nothing")
		}
	}
	res, err := runGrid(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("oracle mismatch passed the check")
	}
}

// TestP99 pins the stretch-median tail statistic.
func TestP99(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = 1
	}
	xs[10] = 1000 // one stall in the first window
	if got := p99(xs, 100); got != 1 {
		t.Fatalf("p99 = %v, want 1: a single stretch's stall must not set the tail", got)
	}
	if got := quantile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Fatalf("median = %v", got)
	}
}

// TestSameWorkRepeats runs each workload twice with the same seed and
// length: the amount of work may not depend on how fast the host ran,
// so both runs attempt the same operations, and the grid, whose
// engine and radio are deterministic, fails the same ones.
func TestSameWorkRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range []string{"gw_fanout", "emu_grid"} {
		var runs [2]*result
		for i := range runs {
			res, err := workloads[w](smallOptions(t, w, false))
			if err != nil {
				t.Fatalf("%s: %v", w, err)
			}
			runs[i] = res
		}
		if runs[0].Attempted != runs[1].Attempted {
			t.Errorf("%s: attempted %d, then %d", w, runs[0].Attempted, runs[1].Attempted)
		}
		if w == "emu_grid" && runs[0].Failed != runs[1].Failed {
			t.Errorf("%s: failed %d, then %d", w, runs[0].Failed, runs[1].Failed)
		}
	}
}
