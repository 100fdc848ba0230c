// Command perfbench is the repository benchmark for the TOTA
// middleware. One process generates all the load of one workload:
//
//	gw_fanout  client inject on node A → event at a client of node E,
//	           over a 5-node UDP loopback chain with a gateway on A and
//	           E, 2,000 single-name subscriptions on E and Read RPCs
//	           beside the injects
//	emu_grid   a 10,000-node emulated grid: settle, steady-state
//	           anti-entropy epochs, then mobile repairs
//
// Run it from the repository root (perfbench/run.sh builds it):
//
//	perfbench --workload gw_fanout --seed 1 --seconds 50 --trace 0
//
// The last line of standard output is the result: a JSON object with
// the keys correct, attempted, failed and metrics. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the layers are
// wrapped and timed from outside and the per-layer metrics are printed
// instead. The line before it stamps the environment and sample counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports. Ops that could not complete (lost
// events, failed RPCs, repairs that broke the storm guard) count in
// failed; wrong outputs (an unknown event, a read that misses the
// pinned tuple, a field that differs from the BFS oracle) clear correct.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	layers  map[string]metric
	samples map[string]int
	notes   []string
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}, layers: map[string]metric{}, samples: map[string]int{}}
}

// set records an end-to-end metric.
func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// layer records a per-layer metric; its unit comes from layerMetrics.
func (r *result) layer(name string, v float64) {
	for _, m := range layerMetrics {
		if m.name == name {
			r.layers[name] = metric{Value: v, Unit: m.unit}
			return
		}
	}
	panic("perfbench: unlisted per-layer metric " + name)
}

// wrong records an output check that failed.
func (r *result) wrong(format string, args ...any) {
	r.Correct = false
	r.note(format, args...)
}

func (r *result) note(format string, args ...any) {
	if len(r.notes) < 32 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// options is one run's configuration. Tests shrink the sizes and plant
// faults through the hooks; the command line sets only the first four.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string

	// Sizes (zero selects the workload default).
	nodes int // emu_grid world size
	subs  int // gw_fanout subscription count

	// Planted faults for the benchmark's own tests.
	dropEvent   func(k int64) bool // client-side: discard this event
	afterSettle func(g *gridRun)   // emu_grid: runs before the oracle check
}

var workloads = map[string]func(opts options) (*result, error){
	"gw_fanout": runFanout,
	"emu_grid":  runGrid,
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "gw_fanout or emu_grid")
	seed := fs.Int64("seed", 1, "input seed: flood names and order, gradient names, observers, mover placement")
	seconds := fs.Float64("seconds", 20, "measured time of the run")
	trace := fs.Int("trace", 0, "1 = wrap the layers and print per-layer metrics instead of end-to-end ones")
	spans := fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	opts := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, spansDir: *spans}
	start, steal := time.Now(), stealSeconds()
	res, err := fn(opts)
	if err != nil {
		return err
	}
	if err := res.finish(opts.trace); err != nil {
		return err
	}
	for _, n := range res.notes {
		fmt.Fprintln(stderr, "perfbench:", n)
	}
	stamp := map[string]any{
		"stamp":     environment(),
		"workload":  opts.workload,
		"seed":      opts.seed,
		"trace":     opts.trace,
		"samples":   res.samples,
		"elapsed_s": time.Since(start).Seconds(),
		"steal_s":   stealSeconds() - steal,
	}
	line, err := json.Marshal(stamp)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}
