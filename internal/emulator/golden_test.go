package emulator

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"tota/internal/core"
	"tota/internal/transport"
	"tota/internal/tuple"
)

// digestRun hashes everything a seeded run must reproduce: the
// distributed state fingerprint, the summed middleware counters, the
// radio counters, the scenario's own readings and every node's engine
// trace in node-id order.
func digestRun(fingerprint string, node core.Stats, sim transport.Stats, readings string, traces map[tuple.NodeID][]string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\nnode %+v\nsim %+v\nreadings %s\n", fingerprint, node, sim, readings)
	ids := make([]tuple.NodeID, 0, len(traces))
	for id := range traces {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fmt.Fprintf(h, "trace %s %d\n", id, len(traces[id]))
		for _, ev := range traces[id] {
			fmt.Fprintln(h, ev)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (r seededRun) digest() string {
	readings := fmt.Sprintf("grad %v %d %d", r.gradErr, r.missing, r.extra)
	return digestRun(r.fingerprint, r.nodeStats, r.simStats, readings, r.traces)
}

func (r stagedPathsRun) digest() string {
	readings := fmt.Sprintf("agg %v %v %v %v", r.sumA, r.okA, r.sumB, r.okB)
	return digestRun(r.fingerprint, r.nodeStats, r.simStats, readings, r.traces)
}

// TestGoldenDigests pins the staged-send scenarios to recorded outputs.
// The digests were taken from the stepper that still had a parallel
// delivery pool and region shards, so they also prove the serial
// stepper reproduces those runs bit for bit. A digest change means a
// seeded universe changed — every lossy E-table depends on that — so
// regenerate a digest only for an intended behavior change, and say so
// in the change log.
func TestGoldenDigests(t *testing.T) {
	cases := []struct {
		name string
		run  func() string
		want string
	}{
		{"retract/99", func() string { return runRetractScenario(99).digest() }, "ea219d9b190b98051af5c15d531571e304ab4164171140037d4e41a107c65b7a"},
		{"lease/42", func() string { return runLeaseScenario(42).digest() }, "8d367649312e95ef3fe406dba49b8150390d3ad88ed4a1bea4ee8c40cddff02b"},
		{"staged_paths/77", func() string { return runStagedPathsScenario(77).digest() }, "dcdf48a2b577515fde67678f4ce3c652e490fb6a3636000b2930f9d84ea0a516"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.run(); got != c.want {
				t.Errorf("digest = %s, want %s", got, c.want)
			}
		})
	}
}
