package main

import (
	"fmt"
	"time"

	"tota/internal/core"
)

// metricSpec names one metric with its unit and which direction is
// better; BENCHMARK.json lists the same names.
type metricSpec struct {
	name, unit, better string
}

// e2eMetrics are what a user of the system sees. Every workload reports
// every one of them, each measured on that workload's own system (see
// NOTES.md for what each means on the UDP chain and on the emulated
// grid).
var e2eMetrics = []metricSpec{
	{"setup_s", "s", "lower"},
	{"event_p50_ms", "ms", "lower"},
	{"event_p99_ms", "ms", "lower"},
	{"events_per_s", "1/s", "higher"},
	{"read_p50_ms", "ms", "lower"},
	{"read_p99_ms", "ms", "lower"},
	{"settle_s", "s", "lower"},
	{"epoch_p50_ms", "ms", "lower"},
	{"epoch_p99_ms", "ms", "lower"},
	{"repair_p50_ms", "ms", "lower"},
	{"repair_p99_ms", "ms", "lower"},
	{"msgs_per_node", "count", "lower"},
	{"bytes_per_node", "B", "lower"},
}

// layerMetrics come from the traced run. A layer that does no work on a
// workload reports 0.
var layerMetrics = []metricSpec{
	{"gateway.inject_rpc_ms", "ms", "lower"},
	{"gateway.fanout_ms", "ms", "lower"},
	{"gateway.events_delivered", "count", "higher"},
	{"gateway.events_dropped", "count", "lower"},
	{"core.local_event_ms", "ms", "lower"},
	{"core.handle_packet_us_p50", "us", "lower"},
	{"core.handle_packet_us_p99", "us", "lower"},
	{"core.handle_packet_count", "count", "lower"},
	{"core.handle_packet_busy_share", "ratio", "lower"},
	{"core.refresh_ms", "ms", "lower"},
	{"core.dup_ratio", "ratio", "lower"},
	{"core.refresh_suppressed_ratio", "ratio", "higher"},
	{"udp.path_ms", "ms", "lower"},
	{"udp.send_us", "us", "lower"},
	{"udp.shed", "count", "lower"},
	{"udp.datagrams_in", "count", "lower"},
	{"udp.datagrams_out", "count", "lower"},
	{"wire.frame_bytes", "B", "lower"},
	{"wire.decode_ns", "ns", "lower"},
	{"transport.step_ms", "ms", "lower"},
	{"transport.sent", "count", "lower"},
	{"transport.payload_bytes", "B", "lower"},
	{"emulator.tick_ms", "ms", "lower"},
	{"emulator.refresh_all_ms", "ms", "lower"},
	{"topology.edge_events", "count", "lower"},
	{"gen.late_p50_ms", "ms", "lower"},
	{"gen.late_p99_ms", "ms", "lower"},
	{"trace.event_p50_ms", "ms", "lower"},
	{"trace.segment_sum_p50_ms", "ms", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
	{"trace.spans", "count", "lower"},
	{"trace.spans_dropped", "count", "lower"},
}

// finish checks that every end-to-end metric was measured and, for a
// traced run, swaps in the per-layer metrics (zero for idle layers).
func (r *result) finish(traced bool) error {
	for _, m := range e2eMetrics {
		got, ok := r.Metrics[m.name]
		if !ok {
			return fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		if got.Unit != m.unit {
			return fmt.Errorf("metric %s has unit %s, want %s", m.name, got.Unit, m.unit)
		}
	}
	if !traced {
		return nil
	}
	r.Metrics = map[string]metric{}
	for _, m := range layerMetrics {
		v, ok := r.layers[m.name]
		if !ok {
			v = metric{Unit: m.unit}
		}
		r.Metrics[m.name] = v
	}
	return nil
}

// engineLayers reports the metrics both the chain and the grid read from
// the engine wrappers and counters: handler timings, the engine's
// duplicate and refresh-suppression ratios, and the wire replay.
func engineLayers(res *result, tr *tracer, before, after core.Stats, tracedFor time.Duration, frameBytes, decodeNs float64) {
	res.layer("core.handle_packet_us_p50", tr.handle.quantile(0.5)/1e3)
	res.layer("core.handle_packet_us_p99", tr.handle.quantile(0.99)/1e3)
	res.layer("core.handle_packet_count", float64(tr.handle.count.Load()))
	res.layer("core.handle_packet_busy_share", ratio(float64(tr.handle.sum.Load()), float64(tracedFor.Nanoseconds())))
	res.layer("core.dup_ratio", ratio(float64(after.DupDropped-before.DupDropped), float64(after.PacketsIn-before.PacketsIn)))
	ann := float64(after.RefreshAnnounced - before.RefreshAnnounced)
	sup := float64(after.RefreshSuppressed - before.RefreshSuppressed)
	res.layer("core.refresh_suppressed_ratio", ratio(sup, ann+sup))
	res.layer("wire.frame_bytes", frameBytes)
	res.layer("wire.decode_ns", decodeNs)
	res.layer("topology.edge_events", float64(tr.edgeEvents.Load()))
	tr.mu.Lock()
	res.layer("trace.spans", float64(len(tr.spans)))
	tr.mu.Unlock()
	res.layer("trace.spans_dropped", float64(tr.dropped.Load()))
}
