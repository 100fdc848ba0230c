package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tota/internal/transport"
	"tota/internal/tuple"
	"tota/internal/wire"
)

// maxSpans bounds the spans kept in memory; later spans still feed the
// duration histograms and are counted as dropped.
const maxSpans = 200_000

// maxFrames bounds the engine frames captured for the wire.Decode replay.
const maxFrames = 4096

// span is one timed call at a layer boundary. Spans of one injected
// flood share Req (its k); Parent indexes the enclosing span (-1 none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer records spans from wrappers the benchmark puts around the
// layers' public functions. on gates recording so a traced run can
// alternate traced and untraced stretches and report the difference as
// the tracing overhead; the wrappers stay installed either way.
type tracer struct {
	base time.Time
	on   atomic.Bool

	mu      sync.Mutex
	spans   []span
	dropped atomic.Int64
	// bulkFull is set once per-packet spans stop being kept, so the
	// packet path then skips the lock.
	bulkFull atomic.Bool
	frames   [][]byte
	nframes  atomic.Int32 // frames claimed, so a full buffer costs no lock

	handle, send, refresh, step, tick, refreshAll hist
	edgeEvents                                    atomic.Int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// now is the tracer clock in nanoseconds since the run began.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add records a finished span and feeds h (when non-nil) with its
// duration. It returns the span's index, or -1 when the buffer is full.
func (t *tracer) add(h *hist, name string, start, end int64, parent int32, req int64) int32 {
	return t.record(h, name, start, end, parent, req, maxSpans)
}

// record is add with a buffer limit: per-packet spans stop being kept at
// half the buffer, so a 10k-node world's packets cannot crowd out the
// spans of the phases that caused them.
func (t *tracer) record(h *hist, name string, start, end int64, parent int32, req int64, limit int) int32 {
	if h != nil {
		h.observe(end - start)
	}
	if limit < maxSpans && t.bulkFull.Load() {
		t.dropped.Add(1)
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= limit {
		if limit < maxSpans {
			t.bulkFull.Store(true)
		}
		t.dropped.Add(1)
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

// open starts a span whose children are recorded before it ends; close
// sets its end. open returns -1 when tracing is off or the buffer is full.
func (t *tracer) open(name string) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	return t.add(nil, name, t.now(), 0, -1, -1)
}

func (t *tracer) close(id int32) {
	if id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// timed runs fn inside a span when tracing is on.
func (t *tracer) timed(h *hist, name string, parent int32, fn func()) {
	if t == nil || !t.on.Load() {
		fn()
		return
	}
	s := t.now()
	fn()
	t.add(h, name, s, t.now(), parent, -1)
}

func (t *tracer) capture(data []byte) {
	if t.nframes.Add(1) > maxFrames {
		return
	}
	frame := append([]byte(nil), data...)
	t.mu.Lock()
	t.frames = append(t.frames, frame)
	t.mu.Unlock()
}

// wireStats replays wire.Decode over the captured frames: mean frame
// size in bytes and mean decode time in nanoseconds.
func (t *tracer) wireStats() (frameBytes, decodeNs float64) {
	t.mu.Lock()
	frames := t.frames
	t.mu.Unlock()
	if len(frames) == 0 {
		return 0, 0
	}
	var total int
	for _, f := range frames {
		total += len(f)
	}
	var best float64 = math.Inf(1)
	for pass := 0; pass < 5; pass++ {
		start := time.Now()
		for _, f := range frames {
			_, _ = wire.Decode(tuple.DefaultRegistry, f)
		}
		if d := float64(time.Since(start).Nanoseconds()) / float64(len(frames)); d < best {
			best = d
		}
	}
	return float64(total) / float64(len(frames)), best
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// handler wraps a transport.Handler (a core.Node) so every delivery and
// neighbor change is timed; frames are captured for the decode replay.
type handler struct {
	t *tracer
	h transport.Handler
}

func (w handler) HandlePacket(from tuple.NodeID, data []byte) {
	if !w.t.on.Load() {
		w.h.HandlePacket(from, data)
		return
	}
	w.t.capture(data)
	s := w.t.now()
	w.h.HandlePacket(from, data)
	w.t.record(&w.t.handle, "core.handle_packet", s, w.t.now(), -1, -1, maxSpans/2)
}

func (w handler) HandleNeighbor(peer tuple.NodeID, added bool) {
	w.t.edgeEvents.Add(1)
	w.t.timed(nil, "core.handle_neighbor", -1, func() { w.h.HandleNeighbor(peer, added) })
}

// udpSender is the Sender a traced node is built on. It must forward
// the optional FrameLimiter and PayloadReleaser interfaces of the
// transport it wraps: the engine sizes its batch frames and recycles
// its encode buffers by them, and without them the traced engine would
// be a different program.
type udpSender interface {
	transport.Sender
	transport.FrameLimiter
	transport.PayloadReleaser
}

type sender struct {
	t *tracer
	s udpSender
}

var (
	_ transport.FrameLimiter    = sender{}
	_ transport.PayloadReleaser = sender{}
)

func (w sender) Self() tuple.NodeID        { return w.s.Self() }
func (w sender) Neighbors() []tuple.NodeID { return w.s.Neighbors() }
func (w sender) FramePayloadLimit() int    { return w.s.FramePayloadLimit() }
func (w sender) ReleasesPayloads() bool    { return w.s.ReleasesPayloads() }

func (w sender) Broadcast(data []byte) (err error) {
	w.t.timed(&w.t.send, "udp.broadcast", -1, func() { err = w.s.Broadcast(data) })
	return err
}

func (w sender) Send(to tuple.NodeID, data []byte) (err error) {
	w.t.timed(&w.t.send, "udp.send", -1, func() { err = w.s.Send(to, data) })
	return err
}

// hist is a lock-free duration histogram with 16 buckets per power of
// two (about 4% resolution), so per-packet timings of a 10k-node world
// cost no memory growth.
type hist struct {
	buckets [64 * 16]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

func (h *hist) observe(ns int64) {
	if ns < 1 {
		ns = 1
	}
	i := int(math.Log2(float64(ns)) * 16)
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// quantile returns the q-quantile in nanoseconds (bucket midpoint).
func (h *hist) quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return math.Exp2((float64(i) + 0.5) / 16)
		}
	}
	return 0
}
