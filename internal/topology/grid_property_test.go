package topology

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tota/internal/space"
)

// eventsEqual compares two event slices element-wise (nil and empty are
// equivalent: both mean "no change").
func eventsEqual(a, b []EdgeEvent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// edgeSet flattens a graph's edges into canonical "a|b" strings.
func edgeSet(g *Graph) map[string]bool {
	out := make(map[string]bool)
	for _, a := range g.Nodes() {
		for _, b := range g.Neighbors(a) {
			if a < b {
				out[string(a)+"|"+string(b)] = true
			}
		}
	}
	return out
}

func edgeSetsEqual(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestRecomputeMatchesReferenceQuick is the grid-index equivalence
// property: starting from the same random geometric layout and applying
// the same randomized edit script (moves, manual edge edits, wired
// toggles, node churn) to two graphs, the grid-indexed Recompute must
// emit the identical EdgeEvent sequence — same events, same order — as
// the O(n²) all-pairs reference, and leave the identical edge set.
func TestRecomputeMatchesReferenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		const (
			n      = 40
			side   = 12.0
			radius = 3.0
			rounds = 8
		)
		rng := rand.New(rand.NewSource(seed))
		grid, ref := New(), New()
		for i := 0; i < n; i++ {
			p := space.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
			grid.SetPosition(NodeName(i), p)
			ref.SetPosition(NodeName(i), p)
		}
		if !eventsEqual(grid.Recompute(radius), ref.RecomputeReference(radius)) {
			return false
		}
		for round := 0; round < rounds; round++ {
			// One scripted batch of edits, applied to both graphs.
			edits := 1 + rng.Intn(6)
			for e := 0; e < edits; e++ {
				i := rng.Intn(n)
				id := NodeName(i)
				switch rng.Intn(10) {
				case 0: // manual edge add (may be out of range)
					other := NodeName(rng.Intn(n))
					grid.AddEdge(id, other)
					ref.AddEdge(id, other)
				case 1: // manual edge remove (may be re-added next pass)
					nbrs := grid.Neighbors(id)
					if len(nbrs) > 0 {
						other := nbrs[rng.Intn(len(nbrs))]
						grid.RemoveEdge(id, other)
						ref.RemoveEdge(id, other)
					}
				case 2: // wired toggle
					w := rng.Intn(2) == 0
					grid.SetWired(id, w)
					ref.SetWired(id, w)
				case 3: // node departure + re-arrival (handle recycling)
					grid.RemoveNode(id)
					ref.RemoveNode(id)
					p := space.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
					grid.SetPosition(id, p)
					ref.SetPosition(id, p)
				default: // move (the common case)
					p := space.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
					grid.SetPosition(id, p)
					ref.SetPosition(id, p)
				}
			}
			if !eventsEqual(grid.Recompute(radius), ref.RecomputeReference(radius)) {
				return false
			}
			if !edgeSetsEqual(edgeSet(grid), edgeSet(ref)) {
				return false
			}
		}
		// Quiescent pass: the dirty-set short-circuit must emit nothing,
		// matching the reference's no-change pass.
		return eventsEqual(grid.Recompute(radius), ref.RecomputeReference(radius))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestRecomputeDirtyShortCircuit pins the satellite fix: a Recompute
// pass with no pending changes returns nil without rescanning.
func TestRecomputeDirtyShortCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := RandomGeometric(50, 10, 2.5, rng)
	if ev := g.Recompute(2.5); ev != nil {
		t.Fatalf("idle Recompute = %v, want nil", ev)
	}
	// A single move dirties exactly one node; the pass still works.
	g.SetPosition(NodeName(0), space.Point{X: 100, Y: 100})
	g.Recompute(2.5)
	if ev := g.Recompute(2.5); ev != nil {
		t.Fatalf("idle Recompute after move = %v, want nil", ev)
	}
}

// TestRecomputeRangeChangeRescansAll pins the grid-rebuild path: when
// the radio range changes between calls, every node is re-judged even
// if none moved.
func TestRecomputeRangeChangeRescansAll(t *testing.T) {
	g := New()
	g.SetPosition("a", space.Point{X: 0, Y: 0})
	g.SetPosition("b", space.Point{X: 2, Y: 0})
	if ev := g.Recompute(1.0); len(ev) != 0 {
		t.Fatalf("events at range 1 = %v", ev)
	}
	ev := g.Recompute(3.0)
	if len(ev) != 1 || !ev[0].Added {
		t.Fatalf("events after widening range = %v, want one addition", ev)
	}
	ev = g.Recompute(1.0)
	if len(ev) != 1 || ev[0].Added {
		t.Fatalf("events after narrowing range = %v, want one removal", ev)
	}
}

// TestHandleAccessors covers the handle-level API surface.
func TestHandleAccessors(t *testing.T) {
	g := New()
	g.SetPosition("a", space.Point{X: 1, Y: 2})
	h, ok := g.Handle("a")
	if !ok {
		t.Fatal("Handle(a) missing")
	}
	if id := g.IDAt(h); id != "a" {
		t.Errorf("IDAt = %q", id)
	}
	if p, ok := g.PositionAt(h); !ok || p != (space.Point{X: 1, Y: 2}) {
		t.Errorf("PositionAt = %v, %v", p, ok)
	}
	g.SetPositionAt(h, space.Point{X: 5, Y: 6})
	if p, _ := g.Position("a"); p != (space.Point{X: 5, Y: 6}) {
		t.Errorf("Position after SetPositionAt = %v", p)
	}
	if g.HandleCap() < 1 {
		t.Errorf("HandleCap = %d", g.HandleCap())
	}
	if id := g.IDAt(-1); id != "" {
		t.Errorf("IDAt(-1) = %q", id)
	}
	order := g.AppendSortedHandles(nil)
	if len(order) != 1 || order[0] != h {
		t.Errorf("AppendSortedHandles = %v", order)
	}
	g.RemoveNode("a")
	if id := g.IDAt(h); id != "" {
		t.Errorf("IDAt after remove = %q", id)
	}
	if _, ok := g.PositionAt(h); ok {
		t.Error("PositionAt after remove still ok")
	}
}
