package transport

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tota/internal/topology"
	"tota/internal/tuple"
)

// forwarder is a Handler that re-broadcasts every packet it receives
// while the payload's TTL byte is positive — a deterministic traffic
// amplifier that exercises sends-from-handler-callbacks, the path the
// staged merge must keep deterministic.
type forwarder struct {
	ep *SimEndpoint

	mu  sync.Mutex
	log []string
}

func (f *forwarder) HandlePacket(from tuple.NodeID, data []byte) {
	f.mu.Lock()
	f.log = append(f.log, fmt.Sprintf("%s:%x", from, data))
	f.mu.Unlock()
	if len(data) == 0 || data[0] == 0 {
		return
	}
	fwd := make([]byte, len(data))
	copy(fwd, data)
	fwd[0]--
	_ = f.ep.Broadcast(fwd)
}

func (f *forwarder) HandleNeighbor(peer tuple.NodeID, added bool) {}

func (f *forwarder) snapshot() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.log))
	copy(out, f.log)
	return out
}

// runForwardingStorm floods a 5x5 grid with TTL-limited re-broadcasts
// under loss, duplication and shuffled delivery, and returns the global
// Stats plus each node's received-packet sequence.
func runForwardingStorm() (Stats, map[tuple.NodeID][]string) {
	g := topology.Grid(5, 5, 1)
	s := NewSim(g, SimConfig{
		Loss:    0.15,
		Dup:     0.1,
		Shuffle: true,
		Seed:    7,
	})
	fwds := make(map[tuple.NodeID]*forwarder)
	for _, id := range g.Nodes() {
		f := &forwarder{}
		f.ep = s.Attach(id, f)
		fwds[id] = f
	}
	for i := 0; i < 4; i++ {
		payload := make([]byte, 5)
		payload[0] = 6 // TTL
		binary.BigEndian.PutUint32(payload[1:], uint32(i))
		if err := fwds[topology.NodeName(i*7)].ep.Broadcast(payload); err != nil {
			panic(err)
		}
	}
	s.RunUntilQuiet(10000)
	logs := make(map[tuple.NodeID][]string)
	for id, f := range fwds {
		logs[id] = f.snapshot()
	}
	return s.Stats(), logs
}

// diffStorm reports where a storm run diverges from the baseline.
func diffStorm(t *testing.T, label string, baseStats, stats Stats, baseLogs, logs map[tuple.NodeID][]string) {
	t.Helper()
	if stats != baseStats {
		t.Errorf("%s: stats diverged: %+v vs %+v", label, baseStats, stats)
	}
	for id, want := range baseLogs {
		got := logs[id]
		if len(got) != len(want) {
			t.Errorf("%s: node %s received %d packets, want %d", label, id, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: node %s packet %d = %s, want %s", label, id, i, got[i], want[i])
				break
			}
		}
	}
}

// TestStepDeterministicAcrossWorkerCounts is the staged-merge guarantee:
// with loss, duplication, shuffling and handler re-broadcasts all
// active, a seeded storm is bit-identical run after run — including
// when 1, 2, 4 or 8 independent Sims run it at once, one per worker
// goroutine, so no Sim shares mutable state with another.
func TestStepDeterministicAcrossWorkerCounts(t *testing.T) {
	baseStats, baseLogs := runForwardingStorm()
	if baseStats.Delivered == 0 || baseStats.Dropped == 0 {
		t.Fatalf("storm too quiet to be a meaningful test: %+v", baseStats)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		stats := make([]Stats, workers)
		logs := make([]map[tuple.NodeID][]string, workers)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				stats[i], logs[i] = runForwardingStorm()
			}(i)
		}
		wg.Wait()
		for i := range stats {
			diffStorm(t, fmt.Sprintf("workers=%d run %d", workers, i), baseStats, stats[i], baseLogs, logs[i])
		}
	}
}

// TestStepDeterministicAcrossGOMAXPROCS re-runs the storm under
// GOMAXPROCS=1 and GOMAXPROCS=8: delivery is serial, so the counters and
// per-node receive sequences must not depend on the CPU count.
func TestStepDeterministicAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	oneStats, oneLogs := runForwardingStorm()
	runtime.GOMAXPROCS(8)
	eightStats, eightLogs := runForwardingStorm()
	runtime.GOMAXPROCS(prev)
	diffStorm(t, "GOMAXPROCS=1 vs 8", oneStats, eightStats, oneLogs, eightLogs)
}

// TestSimConcurrentAttachStepSend hammers the Sim from many goroutines
// at once — steppers, senders, attachers, detachers, topology editors —
// to prove memory safety under -race. (Determinism is not expected
// here; that requires the emulator's single-driver discipline.)
func TestSimConcurrentAttachStepSend(t *testing.T) {
	g := topology.Grid(4, 4, 1)
	s := NewSim(g, SimConfig{Loss: 0.1, Dup: 0.1, Shuffle: true, Seed: 3})
	eps := make([]*SimEndpoint, 0, 16)
	for _, id := range g.Nodes() {
		f := &forwarder{}
		f.ep = s.Attach(id, f)
		eps = append(eps, f.ep)
	}

	var stop atomic.Bool
	var mainSteps atomic.Int64
	var wg sync.WaitGroup
	// Stepper.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			s.Step()
		}
	}()
	// Senders. Each sends at most 64 broadcasts per main-loop step:
	// every packet is re-broadcast twice, and unthrottled senders can
	// outrun the steppers on a busy machine — the queue, and with it
	// each delivery phase, then grows without bound. Waiting on Rounds
	// would not do, since the stepper goroutine advances it while the
	// main loop is still delivering.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; !stop.Load(); j++ {
				if j%64 == 63 {
					for n := mainSteps.Load(); mainSteps.Load() == n && !stop.Load(); {
						runtime.Gosched()
					}
				}
				ep := eps[(i*5+j)%len(eps)]
				_ = ep.Broadcast([]byte{2, byte(j)})
			}
		}(i)
	}
	// Attach/detach churner.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; !stop.Load(); j++ {
			id := tuple.NodeID(fmt.Sprintf("x%04d", j%8))
			f := &forwarder{}
			f.ep = s.Attach(id, f)
			s.AddEdge(id, topology.NodeName(j%16))
			_ = f.ep.Broadcast([]byte{1})
			s.Detach(id)
		}
	}()
	// Topology editor.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; !stop.Load(); j++ {
			a, b := topology.NodeName(j%16), topology.NodeName((j+5)%16)
			s.RemoveEdge(a, b)
			s.AddEdge(a, b)
		}
	}()

	for i := 0; i < 200; i++ {
		s.Step()
		mainSteps.Add(1)
	}
	stop.Store(true)
	wg.Wait()
	s.RunUntilQuiet(10000)
}
