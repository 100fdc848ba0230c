package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
	"sync"

	"tota/internal/core"
	"tota/internal/tuple"
)

// MultiTracer fans one engine trace stream out to several consumers
// (e.g. a JSONL sink plus a latency tracker). Nil entries are skipped.
func MultiTracer(ts ...core.Tracer) core.Tracer {
	kept := ts[:0]
	for _, t := range ts {
		if t != nil {
			kept = append(kept, t)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return func(ev core.TraceEvent) {
		for _, t := range kept {
			t(ev)
		}
	}
}

// TraceRecord is the JSONL trace schema (one object per line; see
// DESIGN.md §7 for the field contract).
type TraceRecord struct {
	// T is the sink clock reading when the event was enqueued
	// (emulator ticks or Unix seconds, per deployment).
	T float64 `json:"t"`
	// Kind is the engine decision (inject, store, supersede, forward,
	// dup, ttl, adopt, withdraw, retract, expire, deny).
	Kind string `json:"kind"`
	// Node is where the decision happened.
	Node string `json:"node"`
	// ID is the tuple id (NODE#SEQ).
	ID string `json:"id"`
	// Tuple is the tuple kind, when known.
	Tuple string `json:"tuple,omitempty"`
	// From is the previous hop for arrival decisions.
	From string `json:"from,omitempty"`
	// Hop is the copy's hop count, when meaningful.
	Hop int `json:"hop,omitempty"`
	// Val is the maintained structure value, when meaningful.
	Val float64 `json:"val,omitempty"`
	// Trace, Span and PSpan carry the causal trace context of sampled
	// tuples as lowercase hex (absent for unsampled events): the
	// tuple's trace id, the span of this node's copy incarnation, and
	// the upstream hop's span that caused it. Hex strings keep uint64
	// identities exact through JSON (float64 numbers would round) and
	// greppable in dumps.
	Trace string `json:"trace,omitempty"`
	Span  string `json:"span,omitempty"`
	PSpan string `json:"pspan,omitempty"`
}

// NewTraceRecord converts one engine event into the JSONL schema,
// stamped with t. Shared by the JSONL sink and the flight recorder so
// both emit identical records for the same event.
func NewTraceRecord(t float64, ev core.TraceEvent) TraceRecord {
	return TraceRecord{
		T:     t,
		Kind:  ev.Kind.String(),
		Node:  string(ev.Node),
		ID:    ev.ID.String(),
		Tuple: ev.TupleKind,
		From:  string(ev.From),
		Hop:   ev.Hop,
		Val:   ev.Value,
		Trace: hexID(ev.TraceID),
		Span:  hexID(ev.Span),
		PSpan: hexID(ev.ParentSpan),
	}
}

// hexID formats a span or trace identity; zero (unsampled) renders as
// the empty string so the JSON field is omitted.
func hexID(v uint64) string {
	if v == 0 {
		return ""
	}
	return strconv.FormatUint(v, 16)
}

type stampedEvent struct {
	t  float64
	ev core.TraceEvent
}

// JSONLSink exports engine trace events as JSON lines on a buffered
// background writer. Enqueueing never blocks the engine: when the
// buffer is full the event is dropped and counted (backpressure by
// shedding, not stalling — the middleware must not slow down because an
// exporter is behind).
type JSONLSink struct {
	clock func() float64
	ch    chan stampedEvent

	written *Counter
	dropped *Counter

	done chan struct{}
	werr error

	closeOnce sync.Once
}

// NewJSONLSink starts a sink writing to w, stamping events with clock
// (nil means "always 0"; pass emulator time or wall-clock seconds).
// depth bounds the in-flight buffer (<=0 selects 4096). The sink's
// written/dropped counters are registered on reg when non-nil.
func NewJSONLSink(w io.Writer, reg *Registry, clock func() float64, depth int) *JSONLSink {
	if depth <= 0 {
		depth = 4096
	}
	if clock == nil {
		clock = func() float64 { return 0 }
	}
	s := &JSONLSink{
		clock: clock,
		ch:    make(chan stampedEvent, depth),
		done:  make(chan struct{}),
	}
	if reg != nil {
		s.written = reg.Counter("tota_trace_events_total", "Trace events exported as JSONL.")
		s.dropped = reg.Counter("tota_trace_dropped_total", "Trace events dropped because the export buffer was full.")
	} else {
		s.written = &Counter{}
		s.dropped = &Counter{}
	}
	go s.writeLoop(w)
	return s
}

func (s *JSONLSink) writeLoop(w io.Writer) {
	defer close(s.done)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for se := range s.ch {
		rec := NewTraceRecord(se.t, se.ev)
		if err := enc.Encode(rec); err != nil {
			if s.werr == nil {
				s.werr = err
			}
			continue
		}
		s.written.Inc()
		// Flush whenever the buffer drains so a live tail of the file
		// sees events promptly; under sustained load the channel stays
		// non-empty and writes keep batching.
		if len(s.ch) == 0 {
			if err := bw.Flush(); err != nil && s.werr == nil {
				s.werr = err
			}
		}
	}
	if err := bw.Flush(); err != nil && s.werr == nil {
		s.werr = err
	}
}

// Tracer returns the core.Tracer feeding this sink.
func (s *JSONLSink) Tracer() core.Tracer {
	return func(ev core.TraceEvent) {
		select {
		case s.ch <- stampedEvent{t: s.clock(), ev: ev}:
		default:
			s.dropped.Inc()
		}
	}
}

// Dropped returns the number of shed events.
func (s *JSONLSink) Dropped() int64 { return s.dropped.Value() }

// Written returns the number of exported events.
func (s *JSONLSink) Written() int64 { return s.written.Value() }

// Close drains the buffer, flushes the writer and returns the first
// write error, if any. The sink must not be fed after Close.
func (s *JSONLSink) Close() error {
	s.closeOnce.Do(func() { close(s.ch) })
	<-s.done
	return s.werr
}

// maxTrackedIDs bounds the latency tracker's per-tuple bookkeeping so a
// long-lived node cannot grow it without bound; injections beyond the
// cap are not tracked (counted in Untracked).
const maxTrackedIDs = 4096

// Latencies derives the two headline middleware latencies from the
// trace stream:
//
//   - Propagation: inject → first store of the same tuple at each other
//     node (how fast a structure spreads).
//   - Repair: disturbance → next maintenance adoption. A disturbance is
//     either a withdrawal of a specific structure (per-id) or an
//     external topology-churn mark (MarkChurn, sampled once by the
//     first adoption that follows).
//   - QueryResult: query inject → the source's first convergecast
//     result for that query (how long a fresh aggregation query takes
//     to produce its first answer).
//
// All methods are safe for concurrent use (a UDP node dispatches and
// scrapes on separate goroutines); the tracker takes one small mutex
// per traced event, which is off the packet fast path (events only
// fire on state changes).
type Latencies struct {
	clock func() float64

	mu        sync.Mutex
	injected  map[tuple.ID]float64
	disturbed map[tuple.ID]float64
	resulted  map[tuple.ID]bool
	churnAt   float64
	churnSet  bool

	// Propagation is the inject→store latency histogram.
	Propagation *Histogram
	// Repair is the disturbance→adopt latency histogram.
	Repair *Histogram
	// QueryResult is the inject→first-result latency histogram for
	// aggregation queries.
	QueryResult *Histogram
	// Untracked counts injections beyond the tracking cap.
	Untracked *Counter
}

// NewLatencies builds a latency tracker with the given clock and bucket
// bounds (RoundBuckets suits tick-based emulation), registering its
// histograms on reg when non-nil.
func NewLatencies(reg *Registry, clock func() float64, buckets []float64) *Latencies {
	if clock == nil {
		clock = func() float64 { return 0 }
	}
	l := &Latencies{
		clock:     clock,
		injected:  make(map[tuple.ID]float64),
		disturbed: make(map[tuple.ID]float64),
		resulted:  make(map[tuple.ID]bool),
	}
	if reg != nil {
		l.Propagation = reg.Histogram("tota_propagation_latency", "Inject-to-store latency per (tuple, node), in clock units.", buckets)
		l.Repair = reg.Histogram("tota_repair_latency", "Disturbance-to-adoption latency, in clock units.", buckets)
		l.QueryResult = reg.Histogram("tota_query_result_latency", "Query inject-to-first-result latency, in clock units.", buckets)
		l.Untracked = reg.Counter("tota_latency_untracked_total", "Injections not tracked because the id table was full.")
	} else {
		l.Propagation = NewHistogram(buckets)
		l.Repair = NewHistogram(buckets)
		l.QueryResult = NewHistogram(buckets)
		l.Untracked = &Counter{}
	}
	return l
}

// Reset clears the in-flight tracking state (pending injections,
// disturbances and churn marks) while keeping the histograms. Callers
// running repeated trials use it between runs so stale ids from one
// trial cannot pollute the next one's samples.
func (l *Latencies) Reset() {
	l.mu.Lock()
	clear(l.injected)
	clear(l.disturbed)
	clear(l.resulted)
	l.churnSet = false
	l.mu.Unlock()
}

// MarkChurn records an external disturbance (topology change); the next
// maintenance adoption anywhere samples the repair latency against it.
func (l *Latencies) MarkChurn() {
	now := l.clock()
	l.mu.Lock()
	l.churnAt = now
	l.churnSet = true
	l.mu.Unlock()
}

// Tracer returns the core.Tracer feeding this tracker.
func (l *Latencies) Tracer() core.Tracer {
	return func(ev core.TraceEvent) {
		switch ev.Kind {
		case core.TraceInject:
			now := l.clock()
			l.mu.Lock()
			if len(l.injected) < maxTrackedIDs {
				l.injected[ev.ID] = now
			} else {
				l.Untracked.Inc()
			}
			l.mu.Unlock()
		case core.TraceStore:
			now := l.clock()
			l.mu.Lock()
			t0, ok := l.injected[ev.ID]
			d, disturbed := l.disturbed[ev.ID]
			if disturbed {
				delete(l.disturbed, ev.ID)
			}
			l.mu.Unlock()
			// A re-store after a withdrawal is a repair, not propagation.
			if disturbed {
				l.Repair.Observe(now - d)
			} else if ok && ev.Node != ev.ID.Node {
				l.Propagation.Observe(now - t0)
			}
		case core.TraceAdopt:
			now := l.clock()
			l.mu.Lock()
			d, disturbed := l.disturbed[ev.ID]
			if disturbed {
				delete(l.disturbed, ev.ID)
			}
			churned := l.churnSet
			c := l.churnAt
			l.churnSet = false
			l.mu.Unlock()
			switch {
			case disturbed:
				l.Repair.Observe(now - d)
			case churned:
				l.Repair.Observe(now - c)
			}
		case core.TraceWithdraw:
			now := l.clock()
			l.mu.Lock()
			if _, ok := l.disturbed[ev.ID]; !ok && len(l.disturbed) < maxTrackedIDs {
				l.disturbed[ev.ID] = now
			}
			l.mu.Unlock()
		case core.TraceAggResult:
			now := l.clock()
			l.mu.Lock()
			t0, ok := l.injected[ev.ID]
			first := ok && !l.resulted[ev.ID]
			if first {
				l.resulted[ev.ID] = true
			}
			l.mu.Unlock()
			// Only the first result samples the histogram: later epochs
			// re-report continuously and would swamp it with zeros. The
			// injected entry stays live so propagation tracking of the
			// query tuple itself is unaffected.
			if first {
				l.QueryResult.Observe(now - t0)
			}
		case core.TraceRetract, core.TraceExpire:
			l.mu.Lock()
			delete(l.injected, ev.ID)
			delete(l.disturbed, ev.ID)
			delete(l.resulted, ev.ID)
			l.mu.Unlock()
		}
	}
}
