package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"tota/internal/topology"
	"tota/internal/tuple"
)

// Sim errors.
var (
	ErrUnknownNode = errors.New("transport: unknown node")
	ErrNotNeighbor = errors.New("transport: destination is not a neighbor")
)

// SimConfig tunes the simulated radio.
type SimConfig struct {
	// Loss is the independent per-packet drop probability in [0, 1).
	Loss float64
	// LatencyRounds is how many Step calls a packet spends in flight
	// (minimum 1).
	LatencyRounds int
	// Shuffle delivers each round's packets in a random (seeded)
	// permutation instead of send order, exploring the delivery-order
	// races the paper's §6 worries about.
	Shuffle bool
	// Dup is the independent probability that a packet is delivered
	// twice (radio-level duplication the engine must absorb).
	Dup float64
	// Seed makes loss and shuffle decisions reproducible.
	Seed int64
	// MaxInbound bounds how many packets may be queued toward one
	// destination at once. When a send would exceed the bound, the
	// OLDEST queued packet for that destination is shed (counted in
	// Stats.Shed): under overload, fresher state wins. Zero disables
	// the bound.
	MaxInbound int
}

// linkKey identifies one direction of a link for per-link fault
// overrides (loss and delay are asymmetric: a->b and b->a are distinct
// keys).
type linkKey struct {
	from, to tuple.NodeID
}

// linkDelay is a per-link latency override: base rounds plus a uniform
// random jitter of [0, jitter] extra rounds per packet.
type linkDelay struct {
	rounds, jitter int
}

// Sim is a deterministic simulated radio network. Nodes attach to it to
// obtain endpoints; the emulator (or a test) drives time by calling
// Step, which delivers every packet sent at least LatencyRounds steps
// earlier. Topology edits notify the attached handlers immediately.
//
// Determinism: due packets are delivered serially in due order, loss is
// drawn from a seeded source in a deterministic merge order, and
// neighbor snapshots are sorted. All methods are safe for concurrent
// use, but determinism additionally requires the usual emulator
// discipline: handler callbacks (and their reactions) send only from
// the node being delivered to, and topology edits happen only from the
// step-driving goroutine between Step calls.
type Sim struct {
	cfg SimConfig

	// rounds counts Step calls (atomic: scraped lock-free as the trace
	// clock and the rounds-per-second throughput metric).
	rounds atomic.Int64

	mu         sync.Mutex
	graph      *topology.Graph
	handlers   map[tuple.NodeID]Handler
	inflight   []simPacket
	rng        *rand.Rand
	stats      Stats
	delivering bool
	// staged collects sends produced inside handler callbacks during a
	// Step's delivery phase, keyed by source node; slice order is the
	// per-source send sequence. The merge at the end of the step replays
	// them in (source, seq) order, which fixes the seeded rng's
	// loss/dup draw order and the in-flight order independently of the
	// (possibly shuffled) delivery order.
	staged map[tuple.NodeID][]stagedSend

	// Fault-injection state, mutated only between Steps (same
	// discipline as topology edits) and read under mu.
	// linkLoss overrides cfg.Loss for one link direction.
	linkLoss map[linkKey]float64
	// linkDelays overrides cfg.LatencyRounds (+ jitter) per direction.
	linkDelays map[linkKey]linkDelay
	// corrupt is the per-packet probability of injected byte flips.
	corrupt float64
	// partition, when non-empty, severs the named node set from the
	// rest: packets crossing the cut are discarded at delivery time
	// with no neighbor events (the engines must notice on their own).
	partition map[tuple.NodeID]struct{}
	// paused nodes keep their links but process nothing: packets
	// addressed to them are held in flight until Resume.
	paused map[tuple.NodeID]struct{}
}

type simPacket struct {
	from, to tuple.NodeID
	data     []byte
	dueRound int
}

type stagedSend struct {
	to   tuple.NodeID
	data []byte
}

// NewSim creates a simulated network over the given (shared, live)
// topology graph.
func NewSim(g *topology.Graph, cfg SimConfig) *Sim {
	if cfg.LatencyRounds < 1 {
		cfg.LatencyRounds = 1
	}
	return &Sim{
		cfg:      cfg,
		graph:    g,
		handlers: make(map[tuple.NodeID]Handler),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		staged:   make(map[tuple.NodeID][]stagedSend),
	}
}

// Graph returns the underlying topology graph.
func (s *Sim) Graph() *topology.Graph { return s.graph }

// SetLoss changes the per-packet drop probability at runtime (failure
// injection).
func (s *Sim) SetLoss(p float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.Loss = p
}

// SetDup changes the per-packet duplication probability at runtime.
func (s *Sim) SetDup(p float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.Dup = p
}

// SetDelay changes the base in-flight latency (in Step rounds, minimum
// 1) at runtime. Already queued packets keep their original due round.
func (s *Sim) SetDelay(rounds int) {
	if rounds < 1 {
		rounds = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.LatencyRounds = rounds
}

// SetLinkLoss overrides the drop probability for the from->to direction
// of one link (asymmetric: set both directions for a symmetric fault).
// A negative p removes the override, restoring the global loss.
func (s *Sim) SetLinkLoss(from, to tuple.NodeID, p float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p < 0 {
		delete(s.linkLoss, linkKey{from, to})
		return
	}
	if s.linkLoss == nil {
		s.linkLoss = make(map[linkKey]float64)
	}
	s.linkLoss[linkKey{from, to}] = p
}

// SetLinkDelay overrides the latency for the from->to direction of one
// link: rounds base latency plus a seeded uniform jitter of up to
// jitter extra rounds per packet. rounds < 1 removes the override.
func (s *Sim) SetLinkDelay(from, to tuple.NodeID, rounds, jitter int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rounds < 1 {
		delete(s.linkDelays, linkKey{from, to})
		return
	}
	if jitter < 0 {
		jitter = 0
	}
	if s.linkDelays == nil {
		s.linkDelays = make(map[linkKey]linkDelay)
	}
	s.linkDelays[linkKey{from, to}] = linkDelay{rounds: rounds, jitter: jitter}
}

// SetCorrupt changes the probability that a queued packet gets random
// byte flips injected (fed to the receiver through the real wire
// decoder). The original payload bytes are never modified — corruption
// copies first, because payloads are shared with sender-side caches.
func (s *Sim) SetCorrupt(p float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.corrupt = p
}

// SetPartition severs the given node set from the rest of the network:
// packets crossing the cut (either direction) are discarded at
// delivery time and counted in Stats.Blocked. Unlike RemoveEdge, no
// neighbor events fire — engines on both sides must detect the
// silence themselves, which is exactly what partition faults test.
// An empty set heals the partition.
func (s *Sim) SetPartition(nodes ...tuple.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(nodes) == 0 {
		s.partition = nil
		return
	}
	s.partition = make(map[tuple.NodeID]struct{}, len(nodes))
	for _, id := range nodes {
		s.partition[id] = struct{}{}
	}
}

// Pause suspends a node's packet processing while keeping its links:
// packets addressed to it are held in flight (not dropped) until
// Resume. Models GC stalls, sleep states, or overloaded hosts.
func (s *Sim) Pause(id tuple.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.paused == nil {
		s.paused = make(map[tuple.NodeID]struct{})
	}
	s.paused[id] = struct{}{}
}

// Resume lifts a Pause; held packets deliver on the next Step.
func (s *Sim) Resume(id tuple.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.paused, id)
}

// Paused reports whether a node is currently paused.
func (s *Sim) Paused(id tuple.NodeID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.paused[id]
	return ok
}

// SetMaxInbound changes the per-destination queue bound at runtime
// (zero disables shedding).
func (s *Sim) SetMaxInbound(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.MaxInbound = n
}

// Attach registers a node and returns its endpoint. The handler may be
// nil initially and set later with Bind (the middleware node needs the
// endpoint at construction time).
func (s *Sim) Attach(id tuple.NodeID, h Handler) *SimEndpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.graph.AddNode(id)
	s.handlers[id] = h
	return &SimEndpoint{net: s, id: id}
}

// Bind sets or replaces the handler for an attached node.
func (s *Sim) Bind(id tuple.NodeID, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[id] = h
}

// Detach removes a node from the network (a crash): its links drop, its
// queued packets are discarded, and surviving neighbors are notified.
func (s *Sim) Detach(id tuple.NodeID) {
	s.mu.Lock()
	events := s.graph.RemoveNode(id)
	delete(s.handlers, id)
	delete(s.paused, id)
	kept := s.inflight[:0]
	for _, p := range s.inflight {
		if p.from != id && p.to != id {
			kept = append(kept, p)
		}
	}
	clearPacketTail(s.inflight, len(kept))
	s.inflight = kept
	s.mu.Unlock()
	s.notify(events)
}

// ApplyEdgeEvents forwards externally produced topology changes (e.g.
// from Graph.Recompute or manual edits) to the affected handlers. The
// graph itself must already reflect the change.
func (s *Sim) ApplyEdgeEvents(events []topology.EdgeEvent) {
	s.notify(events)
}

// AddEdge links two nodes and notifies both handlers.
func (s *Sim) AddEdge(a, b tuple.NodeID) {
	if s.graph.AddEdge(a, b) {
		s.notify([]topology.EdgeEvent{{A: a, B: b, Added: true}})
	}
}

// RemoveEdge unlinks two nodes and notifies both handlers.
func (s *Sim) RemoveEdge(a, b tuple.NodeID) {
	if s.graph.RemoveEdge(a, b) {
		s.notify([]topology.EdgeEvent{{A: a, B: b}})
	}
}

func (s *Sim) notify(events []topology.EdgeEvent) {
	for _, e := range events {
		s.mu.Lock()
		ha, hb := s.handlers[e.A], s.handlers[e.B]
		s.mu.Unlock()
		if ha != nil {
			ha.HandleNeighbor(e.B, e.Added)
		}
		if hb != nil {
			hb.HandleNeighbor(e.A, e.Added)
		}
	}
}

// Step advances simulated time by one round, delivering every due packet
// to its handler in due order and returning the number delivered. Sends
// produced inside handler callbacks are staged and merged in
// deterministic (source node, send sequence) order once delivery ends.
// The link check is per packet: a handler reaction may not edit the
// topology mid-step, but earlier rounds' edits must still gate
// delivery.
func (s *Sim) Step() int {
	s.rounds.Add(1)
	s.mu.Lock()
	// Age packets in place: surviving packets keep the inflight backing
	// array (no per-round reallocation), due ones are copied out.
	var due []simPacket
	kept := s.inflight[:0]
	for _, p := range s.inflight {
		p.dueRound--
		if p.dueRound <= 0 {
			if len(s.partition) != 0 && s.crossesPartitionLocked(p.from, p.to) {
				// The cut severed this packet mid-flight: discard it
				// silently (no neighbor event — partitions are exactly
				// the fault where nobody tells you).
				s.stats.Blocked++
				continue
			}
			if _, held := s.paused[p.to]; held {
				// Destination is paused: hold the packet until Resume
				// by keeping it one round from due.
				p.dueRound = 1
				kept = append(kept, p)
				continue
			}
			due = append(due, p)
		} else {
			kept = append(kept, p)
		}
	}
	clearPacketTail(s.inflight, len(kept))
	s.inflight = kept
	if s.cfg.Shuffle {
		s.rng.Shuffle(len(due), func(i, j int) {
			due[i], due[j] = due[j], due[i]
		})
	}
	if len(due) == 0 {
		s.mu.Unlock()
		return 0
	}
	// Resolve handlers once under the lock; packets to unknown nodes
	// drop immediately.
	hs := make([]Handler, len(due))
	for i, p := range due {
		if hs[i] = s.handlers[p.to]; hs[i] == nil {
			s.stats.Dropped++
		}
	}
	s.delivering = true
	s.mu.Unlock()

	var delivered, droppedLinks int64
	for i, p := range due {
		h := hs[i]
		if h == nil {
			continue
		}
		if !s.graph.HasEdge(p.from, p.to) {
			droppedLinks++
			continue
		}
		h.HandlePacket(p.from, p.data)
		delivered++
	}

	s.mu.Lock()
	s.delivering = false
	s.stats.Delivered += delivered
	s.stats.Dropped += droppedLinks
	s.mergeStagedLocked()
	s.mu.Unlock()
	return int(delivered)
}

// mergeStagedLocked replays the sends staged during the delivery phase
// in (source node, send sequence) order, consuming the seeded rng for
// loss/dup decisions in that same deterministic order.
func (s *Sim) mergeStagedLocked() {
	if len(s.staged) == 0 {
		return
	}
	sources := make([]tuple.NodeID, 0, len(s.staged))
	for src := range s.staged {
		sources = append(sources, src)
	}
	sort.Slice(sources, func(i, j int) bool { return sources[i] < sources[j] })
	for _, src := range sources {
		for _, snd := range s.staged[src] {
			s.commitSendLocked(src, snd.to, snd.data)
		}
		delete(s.staged, src)
	}
}

// PausedSnapshot returns a copy of the paused node set (nil when no
// node is paused), letting a driver test pause state once per phase
// instead of once per node under the Sim lock.
func (s *Sim) PausedSnapshot() map[tuple.NodeID]struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.paused) == 0 {
		return nil
	}
	out := make(map[tuple.NodeID]struct{}, len(s.paused))
	for id := range s.paused {
		out[id] = struct{}{}
	}
	return out
}

// RunUntilQuiet steps until no packets remain in flight or maxSteps is
// reached, returning the number of steps taken. Handlers typically send
// more packets while handling, so this runs a whole propagation wave to
// quiescence.
func (s *Sim) RunUntilQuiet(maxSteps int) int {
	for i := 0; i < maxSteps; i++ {
		s.mu.Lock()
		pending := len(s.inflight)
		s.mu.Unlock()
		if pending == 0 {
			return i
		}
		s.Step()
	}
	return maxSteps
}

// Rounds returns how many Step calls have run. It is safe to read
// concurrently with stepping; emulation drivers use it as a
// monotonic logical clock for trace sinks (unlike World.Time it also
// advances during Settle drains, where no simulated time passes).
func (s *Sim) Rounds() int64 { return s.rounds.Load() }

// Pending returns the number of packets currently in flight.
func (s *Sim) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inflight)
}

// Stats returns a snapshot of the traffic counters.
func (s *Sim) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats zeroes the traffic counters.
func (s *Sim) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = Stats{}
}

// send enqueues one transmission. During a Step's delivery phase the
// send is staged (rng untouched) for the deterministic merge; otherwise
// it commits immediately.
func (s *Sim) send(from, to tuple.NodeID, data []byte) {
	if s.delivering {
		s.staged[from] = append(s.staged[from], stagedSend{to: to, data: data})
		return
	}
	s.commitSendLocked(from, to, data)
}

// crossesPartitionLocked reports whether a packet spans the current
// partition cut (its endpoints sit on different sides).
func (s *Sim) crossesPartitionLocked(from, to tuple.NodeID) bool {
	_, fin := s.partition[from]
	_, tin := s.partition[to]
	return fin != tin
}

// commitSendLocked queues one transmission, applying the fault model in
// a fixed order so seeded runs stay bit-identical: per-link (or global)
// loss, duplication, per-link delay and jitter, corruption, and the
// bounded-inbound shed policy. Every random decision draws from the
// seeded rng under mu, and draws happen only for enabled features, so
// disabling a fault leaves the rng sequence of the remaining ones
// untouched.
func (s *Sim) commitSendLocked(from, to tuple.NodeID, data []byte) {
	loss := s.cfg.Loss
	if len(s.linkLoss) != 0 {
		if p, ok := s.linkLoss[linkKey{from: from, to: to}]; ok {
			loss = p
		}
	}
	if loss > 0 && s.rng.Float64() < loss {
		s.stats.Dropped++
		s.stats.Sent++
		s.stats.PayloadBytes += int64(len(data))
		return
	}
	s.stats.Sent++
	s.stats.PayloadBytes += int64(len(data))
	copies := 1
	if s.cfg.Dup > 0 && s.rng.Float64() < s.cfg.Dup {
		copies = 2
	}
	delay, jitter := s.cfg.LatencyRounds, 0
	if len(s.linkDelays) != 0 {
		if d, ok := s.linkDelays[linkKey{from: from, to: to}]; ok {
			delay, jitter = d.rounds, d.jitter
		}
	}
	for i := 0; i < copies; i++ {
		pdata := data
		if s.corrupt > 0 && s.rng.Float64() < s.corrupt {
			pdata = CorruptBytes(s.rng, data)
			s.stats.Corrupted++
		}
		dueRound := delay
		if jitter > 0 {
			dueRound += s.rng.Intn(jitter + 1)
		}
		if s.cfg.MaxInbound > 0 {
			s.shedOldestLocked(to)
		}
		s.inflight = append(s.inflight, simPacket{
			from:     from,
			to:       to,
			data:     pdata,
			dueRound: dueRound,
		})
	}
}

// shedOldestLocked enforces the per-destination inbound bound before a
// new packet for dest is queued: when the destination already has
// MaxInbound packets in flight, the oldest one is discarded (under
// overload, fresher state wins — TOTA announcements are idempotent and
// anti-entropy heals any gap).
func (s *Sim) shedOldestLocked(dest tuple.NodeID) {
	queued, oldest := 0, -1
	for i := range s.inflight {
		if s.inflight[i].to == dest {
			queued++
			if oldest < 0 {
				oldest = i
			}
		}
	}
	if queued < s.cfg.MaxInbound || oldest < 0 {
		return
	}
	n := len(s.inflight)
	s.inflight = append(s.inflight[:oldest], s.inflight[oldest+1:]...)
	clearPacketTail(s.inflight[:n], len(s.inflight))
	s.stats.Shed++
}

// clearPacketTail zeroes the slots of buf past length n so compaction
// does not pin payload slices and id strings in the retained backing
// array: one settle wave's high-water queue would otherwise hold every
// wavefront payload alive for the rest of the run.
func clearPacketTail(buf []simPacket, n int) {
	for i := n; i < len(buf); i++ {
		buf[i] = simPacket{}
	}
}

// CorruptBytes returns a copy of data with 1–3 random byte flips drawn
// from rng, for feeding corrupted frames through real wire decoders.
// The input slice is never modified (packet payloads are shared with
// sender-side encoding caches).
func CorruptBytes(rng *rand.Rand, data []byte) []byte {
	out := make([]byte, len(data))
	copy(out, data)
	if len(out) == 0 {
		return out
	}
	flips := 1 + rng.Intn(3)
	for i := 0; i < flips; i++ {
		out[rng.Intn(len(out))] ^= byte(1 + rng.Intn(255))
	}
	return out
}

// SimEndpoint is one node's attachment to a Sim network.
type SimEndpoint struct {
	net *Sim
	id  tuple.NodeID
}

var _ Sender = (*SimEndpoint)(nil)

// Self implements Sender.
func (e *SimEndpoint) Self() tuple.NodeID { return e.id }

// Neighbors implements Sender.
func (e *SimEndpoint) Neighbors() []tuple.NodeID {
	return e.net.graph.Neighbors(e.id)
}

// Broadcast implements Sender, enqueueing one copy per current
// neighbor (the radio's one-hop broadcast). The payload slice is shared,
// not copied: receivers must treat packet data as read-only.
func (e *SimEndpoint) Broadcast(data []byte) error {
	nbrs := e.net.graph.Neighbors(e.id)
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	if _, ok := e.net.handlers[e.id]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, e.id)
	}
	e.net.stats.Broadcasts++
	for _, n := range nbrs {
		e.net.send(e.id, n, data)
	}
	return nil
}

// Send implements Sender.
func (e *SimEndpoint) Send(to tuple.NodeID, data []byte) error {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	if _, ok := e.net.handlers[e.id]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, e.id)
	}
	if !e.net.graph.HasEdge(e.id, to) {
		return fmt.Errorf("%w: %s -> %s", ErrNotNeighbor, e.id, to)
	}
	e.net.send(e.id, to, data)
	return nil
}
