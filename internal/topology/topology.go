// Package topology maintains the dynamic neighborhood graph of a TOTA
// network and provides the analytical oracles (BFS distances, shortest
// paths, connectivity) that tests and experiments compare the
// distributed tuple structures against.
//
// The graph can be edited directly (the paper's drag-and-drop emulator
// rearrangements) or recomputed from node positions as a unit-disk graph
// (the MANET "in wireless range" neighborhood relation).
//
// Storage is dense and handle-indexed: every node gets a compact Handle
// into parallel slices (id, adjacency, position, wired flag, grid cell),
// so a very large mostly-idle network costs a few flat arrays instead of
// hundreds of thousands of small map allocations. Geometric recompute
// uses a uniform grid spatial index (cell size = radio range) plus a
// dirty set, so each pass visits only the nodes that moved — and only
// their 3×3 cell neighborhood — instead of scanning all O(n²) pairs.
package topology

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"tota/internal/space"
	"tota/internal/tuple"
)

// EdgeEvent reports that the link between A and B appeared or
// disappeared.
type EdgeEvent struct {
	A, B  tuple.NodeID
	Added bool
}

// String implements fmt.Stringer.
func (e EdgeEvent) String() string {
	op := "-"
	if e.Added {
		op = "+"
	}
	return fmt.Sprintf("%s%s--%s", op, e.A, e.B)
}

// Handle is a compact dense index for one node. Handles are stable for
// the lifetime of the node and may be recycled after RemoveNode, so
// holders of a Handle must drop it when the node is removed. Emulation
// layers use handles to keep their own per-node hot state in flat
// slices instead of per-node map entries.
type Handle int32

// cell addresses one bucket of the uniform grid spatial index.
type cell struct {
	cx, cy int32
}

// Graph is a dynamic undirected graph over node ids, optionally
// annotated with positions. It is safe for concurrent use.
type Graph struct {
	mu  sync.RWMutex
	idx map[tuple.NodeID]Handle

	// Dense handle-indexed node state. ids[h] == "" marks a freed slot.
	ids    []tuple.NodeID
	adj    [][]Handle // neighbor handles, sorted ascending
	pos    []space.Point
	hasPos []bool
	wired  []bool // nodes excluded from geometric recompute
	free   []Handle
	edges  int

	// sorted caches the alive handles in ascending NodeID order; it is
	// invalidated by node addition/removal, not by movement.
	sorted   []Handle
	sortedOK bool

	// Uniform grid spatial index, built lazily by the first Recompute
	// and maintained incrementally by position updates afterwards.
	gridBuilt bool
	gridRange float64 // radio range the grid was built for
	cellSize  float64 // bucket edge length (gridRange, floored at 1)
	cells     map[cell][]Handle
	cellOf    []cell
	inGrid    []bool

	// dirty lists the handles whose edges may need re-evaluation
	// (moved, manually edited, wired-flag toggled). Recompute scans only
	// these. The list may contain stale or duplicate entries; scans are
	// idempotent so both are harmless.
	dirty   []Handle
	isDirty []bool
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{idx: make(map[tuple.NodeID]Handle)}
}

// ensureLocked returns the handle for id, allocating a slot (recycled
// when possible) for a new node.
func (g *Graph) ensureLocked(id tuple.NodeID) Handle {
	if h, ok := g.idx[id]; ok {
		return h
	}
	var h Handle
	if n := len(g.free); n > 0 {
		h = g.free[n-1]
		g.free = g.free[:n-1]
		g.ids[h] = id
		g.adj[h] = g.adj[h][:0]
		g.pos[h] = space.Point{}
		g.hasPos[h] = false
		g.wired[h] = false
		g.cellOf[h] = cell{}
		g.inGrid[h] = false
	} else {
		h = Handle(len(g.ids))
		g.ids = append(g.ids, id)
		g.adj = append(g.adj, nil)
		g.pos = append(g.pos, space.Point{})
		g.hasPos = append(g.hasPos, false)
		g.wired = append(g.wired, false)
		g.cellOf = append(g.cellOf, cell{})
		g.inGrid = append(g.inGrid, false)
		g.isDirty = append(g.isDirty, false)
	}
	g.idx[id] = h
	g.sortedOK = false
	return h
}

func (g *Graph) markDirtyLocked(h Handle) {
	if !g.isDirty[h] {
		g.isDirty[h] = true
		g.dirty = append(g.dirty, h)
	}
}

// AddNode adds an isolated node. Adding an existing node is a no-op.
func (g *Graph) AddNode(id tuple.NodeID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ensureLocked(id)
}

// RemoveNode deletes a node and returns the edge-removal events for the
// links it had (a node crash / departure).
func (g *Graph) RemoveNode(id tuple.NodeID) []EdgeEvent {
	g.mu.Lock()
	defer g.mu.Unlock()
	h, ok := g.idx[id]
	if !ok {
		return nil
	}
	nbrs := g.adj[h]
	events := make([]EdgeEvent, 0, len(nbrs))
	for _, nb := range nbrs {
		g.removeHalfEdgeLocked(nb, h)
		events = append(events, EdgeEvent{A: id, B: g.ids[nb]})
	}
	g.edges -= len(nbrs)
	delete(g.idx, id)
	g.ids[h] = ""
	g.adj[h] = g.adj[h][:0]
	g.hasPos[h] = false
	g.wired[h] = false
	if g.inGrid[h] {
		g.removeFromCellLocked(h)
	}
	g.isDirty[h] = false // a stale dirty-list entry is skipped by scans
	g.free = append(g.free, h)
	g.sortedOK = false
	sortEvents(events)
	return events
}

// HasNode reports whether id is in the graph.
func (g *Graph) HasNode(id tuple.NodeID) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.idx[id]
	return ok
}

// Handle returns the dense handle for id, if the node exists.
func (g *Graph) Handle(id tuple.NodeID) (Handle, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	h, ok := g.idx[id]
	return h, ok
}

// IDAt returns the node id occupying handle h ("" if the slot is free
// or out of range).
func (g *Graph) IDAt(h Handle) tuple.NodeID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if h < 0 || int(h) >= len(g.ids) {
		return ""
	}
	return g.ids[h]
}

// HandleCap returns the size of the handle space (all handles are in
// [0, HandleCap)); dense per-node side tables should be sized to it.
func (g *Graph) HandleCap() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.ids)
}

// AppendSortedHandles appends the alive handles in ascending NodeID
// order to buf and returns it. The order is the same deterministic
// order Nodes returns.
func (g *Graph) AppendSortedHandles(buf []Handle) []Handle {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ensureSortedLocked()
	return append(buf, g.sorted...)
}

func (g *Graph) ensureSortedLocked() {
	if g.sortedOK {
		return
	}
	g.sorted = g.sorted[:0]
	for h := range g.ids {
		if g.ids[h] != "" {
			g.sorted = append(g.sorted, Handle(h))
		}
	}
	sort.Slice(g.sorted, func(i, j int) bool {
		return g.ids[g.sorted[i]] < g.ids[g.sorted[j]]
	})
	g.sortedOK = true
}

// insertHandle inserts v into list at position i, keeping order.
func insertHandle(list []Handle, i int, v Handle) []Handle {
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = v
	return list
}

// addEdgeLocked links two handles and reports whether the graph
// changed. Adjacency lists stay sorted so HasEdge is a binary search.
func (g *Graph) addEdgeLocked(a, b Handle) bool {
	if a == b {
		return false
	}
	la := g.adj[a]
	i := sort.Search(len(la), func(i int) bool { return la[i] >= b })
	if i < len(la) && la[i] == b {
		return false
	}
	g.adj[a] = insertHandle(la, i, b)
	lb := g.adj[b]
	j := sort.Search(len(lb), func(j int) bool { return lb[j] >= a })
	g.adj[b] = insertHandle(lb, j, a)
	g.edges++
	return true
}

// removeHalfEdgeLocked removes b from a's adjacency list only.
func (g *Graph) removeHalfEdgeLocked(a, b Handle) {
	la := g.adj[a]
	i := sort.Search(len(la), func(i int) bool { return la[i] >= b })
	if i < len(la) && la[i] == b {
		g.adj[a] = append(la[:i], la[i+1:]...)
	}
}

func (g *Graph) removeEdgeLocked(a, b Handle) bool {
	if !g.hasEdgeLocked(a, b) {
		return false
	}
	g.removeHalfEdgeLocked(a, b)
	g.removeHalfEdgeLocked(b, a)
	g.edges--
	return true
}

func (g *Graph) hasEdgeLocked(a, b Handle) bool {
	la := g.adj[a]
	i := sort.Search(len(la), func(i int) bool { return la[i] >= b })
	return i < len(la) && la[i] == b
}

// AddEdge links a and b (adding missing nodes) and reports whether the
// graph changed. Both endpoints are marked dirty so the next geometric
// Recompute re-judges the manual edit against the radio range, exactly
// as the all-pairs scan used to.
func (g *Graph) AddEdge(a, b tuple.NodeID) bool {
	if a == b {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	ha, hb := g.ensureLocked(a), g.ensureLocked(b)
	if !g.addEdgeLocked(ha, hb) {
		return false
	}
	g.markDirtyLocked(ha)
	g.markDirtyLocked(hb)
	return true
}

// RemoveEdge unlinks a and b and reports whether the graph changed.
func (g *Graph) RemoveEdge(a, b tuple.NodeID) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	ha, ok := g.idx[a]
	if !ok {
		return false
	}
	hb, ok := g.idx[b]
	if !ok {
		return false
	}
	if !g.removeEdgeLocked(ha, hb) {
		return false
	}
	g.markDirtyLocked(ha)
	g.markDirtyLocked(hb)
	return true
}

// HasEdge reports whether a and b are linked.
func (g *Graph) HasEdge(a, b tuple.NodeID) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ha, ok := g.idx[a]
	if !ok {
		return false
	}
	hb, ok := g.idx[b]
	if !ok {
		return false
	}
	return g.hasEdgeLocked(ha, hb)
}

// Neighbors returns a's neighbors in deterministic (sorted) order.
func (g *Graph) Neighbors(a tuple.NodeID) []tuple.NodeID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ha, ok := g.idx[a]
	if !ok {
		return []tuple.NodeID{}
	}
	out := make([]tuple.NodeID, 0, len(g.adj[ha]))
	for _, nb := range g.adj[ha] {
		out = append(out, g.ids[nb])
	}
	sortIDs(out)
	return out
}

// Degree returns the number of neighbors of a.
func (g *Graph) Degree(a tuple.NodeID) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ha, ok := g.idx[a]
	if !ok {
		return 0
	}
	return len(g.adj[ha])
}

// Nodes returns all node ids in deterministic (sorted) order.
func (g *Graph) Nodes() []tuple.NodeID {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ensureSortedLocked()
	out := make([]tuple.NodeID, len(g.sorted))
	for i, h := range g.sorted {
		out[i] = g.ids[h]
	}
	return out
}

// Len returns the number of nodes.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.idx)
}

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.edges
}

// SetPosition records a node's position (adding the node if missing).
// Positions feed Recompute and the localization devices of the emulator.
func (g *Graph) SetPosition(id tuple.NodeID, p space.Point) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.setPosLocked(g.ensureLocked(id), p)
}

// SetPositionAt is SetPosition by handle, skipping the id lookup — the
// emulator's mover phase uses it on its dense per-handle state.
func (g *Graph) SetPositionAt(h Handle, p space.Point) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if h < 0 || int(h) >= len(g.ids) || g.ids[h] == "" {
		return
	}
	g.setPosLocked(h, p)
}

func (g *Graph) setPosLocked(h Handle, p space.Point) {
	g.pos[h] = p
	g.hasPos[h] = true
	if g.gridBuilt {
		g.placeInGridLocked(h)
	}
	g.markDirtyLocked(h)
}

// Position returns a node's position, if one was recorded.
func (g *Graph) Position(id tuple.NodeID) (space.Point, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	h, ok := g.idx[id]
	if !ok || !g.hasPos[h] {
		return space.Point{}, false
	}
	return g.pos[h], true
}

// PositionAt is Position by handle.
func (g *Graph) PositionAt(h Handle) (space.Point, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if h < 0 || int(h) >= len(g.ids) || g.ids[h] == "" || !g.hasPos[h] {
		return space.Point{}, false
	}
	return g.pos[h], true
}

// SetWired marks a node as excluded from geometric recomputation: its
// manually-added edges persist regardless of positions. This models the
// paper's wired-Internet nodes, whose neighborhood is defined by
// addressability rather than radio range.
func (g *Graph) SetWired(id tuple.NodeID, wired bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	h := g.ensureLocked(id)
	if g.wired[h] != wired {
		g.wired[h] = wired
		g.markDirtyLocked(h)
	}
}

// cellForLocked buckets a position into the uniform grid.
func (g *Graph) cellForLocked(p space.Point) cell {
	return cell{
		cx: int32(math.Floor(p.X / g.cellSize)),
		cy: int32(math.Floor(p.Y / g.cellSize)),
	}
}

func (g *Graph) placeInGridLocked(h Handle) {
	c := g.cellForLocked(g.pos[h])
	if g.inGrid[h] {
		if c == g.cellOf[h] {
			return
		}
		g.removeFromCellLocked(h)
	}
	g.cells[c] = append(g.cells[c], h)
	g.cellOf[h] = c
	g.inGrid[h] = true
}

func (g *Graph) removeFromCellLocked(h Handle) {
	c := g.cellOf[h]
	list := g.cells[c]
	for i, m := range list {
		if m == h {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			break
		}
	}
	if len(list) == 0 {
		delete(g.cells, c)
	} else {
		g.cells[c] = list
	}
	g.inGrid[h] = false
}

// rebuildGridLocked (re)builds the spatial index for a new radio range
// and marks every positioned node dirty, so the next scan re-judges the
// whole graph — the grid equivalent of a full all-pairs pass.
func (g *Graph) rebuildGridLocked(radioRange float64) {
	g.gridBuilt = true
	g.gridRange = radioRange
	g.cellSize = radioRange
	if g.cellSize <= 0 {
		g.cellSize = 1
	}
	g.cells = make(map[cell][]Handle, len(g.idx))
	for h := range g.ids {
		g.inGrid[h] = false
		if g.ids[h] == "" || !g.hasPos[h] {
			continue
		}
		g.placeInGridLocked(Handle(h))
		g.markDirtyLocked(Handle(h))
	}
}

// pairCand is one candidate edge change found by a dirty-node scan,
// normalized so ids[a] < ids[b].
type pairCand struct {
	a, b  Handle
	added bool
}

// scanNodeLocked appends the candidate edge changes around one dirty
// handle: additions from the 3×3 cell neighborhood (any in-range node
// is at most one cell away, because cell size = radio range) and
// removals from the current adjacency list. Wired and positionless
// targets are skipped — the all-pairs scan never considered them.
// Read-only with respect to graph state, so scans parallelize.
func (g *Graph) scanNodeLocked(h Handle, r float64, out []pairCand) []pairCand {
	if g.ids[h] == "" || !g.hasPos[h] || g.wired[h] || !g.inGrid[h] {
		return out
	}
	p := g.pos[h]
	c := g.cellOf[h]
	for dy := int32(-1); dy <= 1; dy++ {
		for dx := int32(-1); dx <= 1; dx++ {
			for _, m := range g.cells[cell{cx: c.cx + dx, cy: c.cy + dy}] {
				if m == h || g.wired[m] {
					continue
				}
				if p.Dist(g.pos[m]) <= r && !g.hasEdgeLocked(h, m) {
					out = append(out, g.normPairLocked(h, m, true))
				}
			}
		}
	}
	for _, m := range g.adj[h] {
		if g.wired[m] || !g.hasPos[m] {
			continue
		}
		if p.Dist(g.pos[m]) > r {
			out = append(out, g.normPairLocked(h, m, false))
		}
	}
	return out
}

func (g *Graph) normPairLocked(a, b Handle, added bool) pairCand {
	if g.ids[a] > g.ids[b] {
		a, b = b, a
	}
	return pairCand{a: a, b: b, added: added}
}

// parallelScanMin is the dirty-set size above which the candidate scan
// fans out over a GOMAXPROCS-bounded pool. The scan is read-only and
// the results are sorted afterwards, so the worker count never changes
// the output.
const parallelScanMin = 4096

func (g *Graph) scanDirtyLocked(r float64) []pairCand {
	workers := runtime.GOMAXPROCS(0)
	if len(g.dirty) < parallelScanMin || workers <= 1 {
		var out []pairCand
		for _, h := range g.dirty {
			out = g.scanNodeLocked(h, r, out)
		}
		return out
	}
	if workers > len(g.dirty) {
		workers = len(g.dirty)
	}
	parts := make([][]pairCand, workers)
	chunk := (len(g.dirty) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(g.dirty) {
			hi = len(g.dirty)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var out []pairCand
			for _, h := range g.dirty[lo:hi] {
				out = g.scanNodeLocked(h, r, out)
			}
			parts[w] = out
		}(w, lo, hi)
	}
	wg.Wait()
	var out []pairCand
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// Recompute rebuilds the edge set of all non-wired positioned nodes as
// a unit-disk graph with the given radio range and returns the
// resulting edge changes in deterministic order.
//
// Only nodes marked dirty since the previous call (moved, added,
// manually edited, wired-flag toggled) are re-scanned, each against its
// 3×3 grid-cell neighborhood; a call with no pending changes returns
// immediately without allocating. The emitted events are exactly those
// of the all-pairs reference scan (RecomputeReference), in the same
// sorted (A, B) order — the equivalence the property suite asserts.
func (g *Graph) Recompute(radioRange float64) []EdgeEvent {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.gridBuilt || radioRange != g.gridRange {
		g.rebuildGridLocked(radioRange)
	}
	if len(g.dirty) == 0 {
		return nil
	}
	cands := g.scanDirtyLocked(radioRange)
	for _, h := range g.dirty {
		g.isDirty[h] = false
	}
	g.dirty = g.dirty[:0]
	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool {
		if g.ids[cands[i].a] != g.ids[cands[j].a] {
			return g.ids[cands[i].a] < g.ids[cands[j].a]
		}
		return g.ids[cands[i].b] < g.ids[cands[j].b]
	})
	var events []EdgeEvent
	for i, c := range cands {
		if i > 0 && c.a == cands[i-1].a && c.b == cands[i-1].b {
			continue // both endpoints dirty: same pair found twice
		}
		if c.added {
			if g.addEdgeLocked(c.a, c.b) {
				events = append(events, EdgeEvent{A: g.ids[c.a], B: g.ids[c.b], Added: true})
			}
		} else if g.removeEdgeLocked(c.a, c.b) {
			events = append(events, EdgeEvent{A: g.ids[c.a], B: g.ids[c.b]})
		}
	}
	return events
}

// RecomputeReference is the original O(n²) all-pairs unit-disk scan,
// kept as the oracle the grid-indexed Recompute is property-tested and
// benchmarked against. It applies the same changes and emits the same
// events in the same order.
func (g *Graph) RecomputeReference(radioRange float64) []EdgeEvent {
	g.mu.Lock()
	defer g.mu.Unlock()
	elig := make([]Handle, 0, len(g.idx))
	for h := range g.ids {
		if g.ids[h] != "" && g.hasPos[h] && !g.wired[h] {
			elig = append(elig, Handle(h))
		}
	}
	sort.Slice(elig, func(i, j int) bool { return g.ids[elig[i]] < g.ids[elig[j]] })

	var events []EdgeEvent
	for i, a := range elig {
		for _, b := range elig[i+1:] {
			inRange := g.pos[a].Dist(g.pos[b]) <= radioRange
			if inRange {
				if g.addEdgeLocked(a, b) {
					events = append(events, EdgeEvent{A: g.ids[a], B: g.ids[b], Added: true})
				}
			} else if g.removeEdgeLocked(a, b) {
				events = append(events, EdgeEvent{A: g.ids[a], B: g.ids[b]})
			}
		}
	}
	// Every pair has been evaluated: pending dirty marks are satisfied.
	for _, h := range g.dirty {
		g.isDirty[h] = false
	}
	g.dirty = g.dirty[:0]
	return events
}

// Clone returns a deep copy of the graph (handle layout included).
func (g *Graph) Clone() *Graph {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := New()
	out.idx = make(map[tuple.NodeID]Handle, len(g.idx))
	for id, h := range g.idx {
		out.idx[id] = h
	}
	out.ids = append([]tuple.NodeID(nil), g.ids...)
	out.adj = make([][]Handle, len(g.adj))
	for h, l := range g.adj {
		if len(l) > 0 {
			out.adj[h] = append([]Handle(nil), l...)
		}
	}
	out.pos = append([]space.Point(nil), g.pos...)
	out.hasPos = append([]bool(nil), g.hasPos...)
	out.wired = append([]bool(nil), g.wired...)
	out.free = append([]Handle(nil), g.free...)
	out.edges = g.edges
	out.gridBuilt = g.gridBuilt
	out.gridRange = g.gridRange
	out.cellSize = g.cellSize
	if g.cells != nil {
		out.cells = make(map[cell][]Handle, len(g.cells))
		for c, l := range g.cells {
			out.cells[c] = append([]Handle(nil), l...)
		}
	}
	out.cellOf = append([]cell(nil), g.cellOf...)
	out.inGrid = append([]bool(nil), g.inGrid...)
	out.dirty = append([]Handle(nil), g.dirty...)
	out.isDirty = append([]bool(nil), g.isDirty...)
	return out
}

// BFSDistances returns the hop distance from src to every reachable
// node (src included, at distance 0). It is the oracle a converged
// hop-count gradient structure must equal.
func (g *Graph) BFSDistances(src tuple.NodeID) map[tuple.NodeID]int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	hs, ok := g.idx[src]
	if !ok {
		return nil
	}
	dist := make([]int32, len(g.ids))
	for i := range dist {
		dist[i] = -1
	}
	dist[hs] = 0
	queue := make([]Handle, 0, 64)
	queue = append(queue, hs)
	out := map[tuple.NodeID]int{src: 0}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range g.adj[cur] {
			if dist[nb] < 0 {
				dist[nb] = dist[cur] + 1
				out[g.ids[nb]] = int(dist[nb])
				queue = append(queue, nb)
			}
		}
	}
	return out
}

// ShortestPath returns one shortest path from src to dst (inclusive),
// or nil if dst is unreachable. Ties break toward lexicographically
// smaller predecessors, so results are deterministic.
func (g *Graph) ShortestPath(src, dst tuple.NodeID) []tuple.NodeID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	hsrc, ok := g.idx[src]
	if !ok {
		return nil
	}
	hdst, dstOK := g.idx[dst]
	if !dstOK {
		return nil
	}
	prev := make([]Handle, len(g.ids))
	for i := range prev {
		prev[i] = -1
	}
	prev[hsrc] = hsrc
	queue := []Handle{hsrc}
	nbrs := make([]tuple.NodeID, 0, 16)
	for len(queue) > 0 && prev[hdst] < 0 {
		cur := queue[0]
		queue = queue[1:]
		nbrs = nbrs[:0]
		for _, nb := range g.adj[cur] {
			nbrs = append(nbrs, g.ids[nb])
		}
		sortIDs(nbrs)
		for _, id := range nbrs {
			nb := g.idx[id]
			if prev[nb] < 0 {
				prev[nb] = cur
				queue = append(queue, nb)
			}
		}
	}
	if prev[hdst] < 0 {
		return nil
	}
	var path []tuple.NodeID
	for cur := hdst; ; cur = prev[cur] {
		path = append(path, g.ids[cur])
		if cur == hsrc {
			break
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// Connected reports whether the graph is non-empty and forms a single
// connected component.
func (g *Graph) Connected() bool {
	nodes := g.Nodes()
	if len(nodes) == 0 {
		return false
	}
	return len(g.BFSDistances(nodes[0])) == len(nodes)
}

// Components returns the connected components, each sorted, ordered by
// their smallest member.
func (g *Graph) Components() [][]tuple.NodeID {
	nodes := g.Nodes()
	seen := make(map[tuple.NodeID]bool, len(nodes))
	var comps [][]tuple.NodeID
	for _, n := range nodes {
		if seen[n] {
			continue
		}
		dist := g.BFSDistances(n)
		comp := make([]tuple.NodeID, 0, len(dist))
		for m := range dist {
			seen[m] = true
			comp = append(comp, m)
		}
		sortIDs(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Diameter returns the longest shortest-path length in the graph's
// largest component.
func (g *Graph) Diameter() int {
	max := 0
	for _, n := range g.Nodes() {
		for _, d := range g.BFSDistances(n) {
			if d > max {
				max = d
			}
		}
	}
	return max
}

func sortIDs(ids []tuple.NodeID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

func sortEvents(evs []EdgeEvent) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].A != evs[j].A {
			return evs[i].A < evs[j].A
		}
		return evs[i].B < evs[j].B
	})
}
