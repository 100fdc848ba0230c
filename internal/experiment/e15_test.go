package experiment

import "testing"

// TestE15QuickSettlesExactly runs the scale pipeline at Quick size
// (1k nodes): on a lossless radio the settled gradient must match the
// BFS oracle exactly — zero error, zero missing, zero extra.
func TestE15QuickSettlesExactly(t *testing.T) {
	r := RunE15N(1_024, 3)
	if r.Rounds <= 0 || r.Rounds >= settleBudget {
		t.Fatalf("settle took %d rounds", r.Rounds)
	}
	if r.GradErr != 0 || r.Missing != 0 || r.Extra != 0 {
		t.Errorf("gradient vs oracle: err=%v missing=%d extra=%d", r.GradErr, r.Missing, r.Extra)
	}
	if r.Edges == 0 || r.Msgs == 0 {
		t.Errorf("degenerate world: edges=%d msgs=%d", r.Edges, r.Msgs)
	}
	if r.PeakRSSMB <= 0 {
		t.Errorf("peak RSS not measured: %v", r.PeakRSSMB)
	}
}

// TestE15Deterministic pins the scale scenario itself to the
// same-seed guarantee: two runs give the same edges, rounds, messages
// and oracle readings, matching the published 1,024-node E15 row.
func TestE15Deterministic(t *testing.T) {
	base := RunE15N(1_024, 2)
	if base.Edges != 3389 || base.Rounds != 20 || base.Msgs != 6778 {
		t.Errorf("E15 n=1024 = %d edges / %d rounds / %d msgs, want 3389 / 20 / 6778",
			base.Edges, base.Rounds, base.Msgs)
	}
	r := RunE15N(1_024, 2)
	if r.Rounds != base.Rounds || r.Msgs != base.Msgs ||
		r.GradErr != base.GradErr || r.Missing != base.Missing || r.Extra != base.Extra ||
		r.Edges != base.Edges {
		t.Errorf("same seed diverged: %+v vs %+v", r, base)
	}
}

// TestE15QuickTable exercises the table-producing wrapper.
func TestE15QuickTable(t *testing.T) {
	res := RunE15(Quick)
	if res.Table.NumRows() != 1 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
	if res.Metrics["grad_err_n1024"] != 0 {
		t.Errorf("grad_err_n1024 = %v", res.Metrics["grad_err_n1024"])
	}
	if res.Metrics["rounds_n1024"] <= 0 {
		t.Errorf("rounds_n1024 = %v", res.Metrics["rounds_n1024"])
	}
}

// TestE15RaceCapped is the CI -race variant: a capped (1k-node) E15
// with mobility ticks, so the sweep/refresh phases run under the race
// detector alongside the settle wave.
func TestE15RaceCapped(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := RunE15N(1_024, 2)
	if r.GradErr != 0 || r.Missing != 0 || r.Extra != 0 {
		t.Errorf("gradient vs oracle: err=%v missing=%d extra=%d", r.GradErr, r.Missing, r.Extra)
	}
}
