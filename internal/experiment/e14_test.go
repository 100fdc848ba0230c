package experiment

import "testing"

func TestE14AggregationShapes(t *testing.T) {
	res := RunE14(Quick)
	for _, n := range []int{16, 36} {
		for _, mode := range []string{"combine", "collect"} {
			if got := res.Metrics[fmtKey("exact", mode, n)]; got != 1 {
				t.Errorf("%s n=%d did not reach the exact oracle sum\n%s", mode, n, res.Table)
			}
		}
		// The acceptance bound of the in-network design: at most one
		// partial per node per epoch, independent of tuple count.
		if got := res.Metrics[fmtKey("partials_per_node_epoch", "combine", n)]; got > 1 {
			t.Errorf("combining sent %v partials/node/epoch at n=%d (bound 1)\n%s", got, n, res.Table)
		}
		// Collect-all must cost strictly more — it forwards every origin
		// record at every hop instead of one combined partial.
		cb := res.Metrics[fmtKey("partials_per_node_epoch", "combine", n)]
		cl := res.Metrics[fmtKey("partials_per_node_epoch", "collect", n)]
		if cl <= cb {
			t.Errorf("collect-all %v <= combining %v partials/node/epoch at n=%d\n%s", cl, cb, n, res.Table)
		}
	}
	// The advantage is asymptotic: collect-all's per-node cost grows
	// with the network while combining's stays flat.
	cl16 := res.Metrics[fmtKey("partials_per_node_epoch", "collect", 16)]
	cl36 := res.Metrics[fmtKey("partials_per_node_epoch", "collect", 36)]
	if cl36 <= cl16 {
		t.Errorf("collect-all per-node cost did not grow with n: %v (n=16) vs %v (n=36)\n%s",
			cl16, cl36, res.Table)
	}
}

func TestE14ChaosConvergesDeterministically(t *testing.T) {
	res := RunE14(Quick)
	for _, w := range []string{"r1", "r2"} {
		if got := res.Metrics[fmtKey("chaos_converged", w, 36)]; got != 1 {
			t.Errorf("chaos run (%s) never reconverged to the exact post-crash aggregate\n%s", w, res.Table)
		}
	}
	if got := res.Metrics["chaos_deterministic"]; got != 1 {
		t.Errorf("chaos results differ across same-seed runs\n%s", res.Table)
	}
}
