package core

import "sync/atomic"

// Stats is a snapshot of the middleware-level activity of one node;
// experiments aggregate these across the network to report overheads
// and repair costs. Obtain one with Node.Stats.
type Stats struct {
	// Injected counts tuples injected through the local API.
	Injected int64
	// PacketsIn counts engine packets received from neighbors.
	PacketsIn int64
	// Stored counts tuples entering the local space for the first time.
	Stored int64
	// Superseded counts stored copies replaced by better ones.
	Superseded int64
	// DupDropped counts duplicate/ignored tuple arrivals.
	DupDropped int64
	// TTLDropped counts copies discarded for exceeding MaxHops.
	TTLDropped int64
	// Retracted counts structures torn down through this node.
	Retracted int64
	// MaintAdopt counts maintenance value adoptions (repairs).
	MaintAdopt int64
	// MaintDrop counts maintenance withdrawals of unsupported copies.
	MaintDrop int64
	// Broadcasts counts engine-initiated broadcasts.
	Broadcasts int64
	// Unicasts counts engine-initiated unicasts (newcomer catch-up).
	Unicasts int64
	// SendErrors counts transport send failures (logged and skipped).
	SendErrors int64
	// DecodeErrors counts undecodable packets.
	DecodeErrors int64
	// Events counts events dispatched to reactions.
	Events int64
	// Denied counts operations rejected by the access-control policy.
	Denied int64
	// Expired counts stored copies removed by lease expiry.
	Expired int64
	// FramesOut counts multi-message batch frames sent (a flush run of
	// one message goes out bare and is not counted).
	FramesOut int64
	// FramesIn counts batch frames received (sub-messages count toward
	// PacketsIn individually).
	FramesIn int64
	// DigestsOut counts anti-entropy digest messages sent by refresh.
	DigestsOut int64
	// DigestsIn counts digest messages received.
	DigestsIn int64
	// PullsOut counts anti-entropy pull requests sent.
	PullsOut int64
	// PullsIn counts pull requests received.
	PullsIn int64
	// RefreshAnnounced counts tuples re-sent in full by refresh because
	// their announcement changed since the last full broadcast.
	RefreshAnnounced int64
	// RefreshSuppressed counts tuples refresh advertised by digest entry
	// instead of full bytes — the anti-entropy suppression win.
	RefreshSuppressed int64
	// Suspected counts maintained copies that entered the suspicion
	// grace window (support lost, withdraw deferred).
	Suspected int64
	// SuspectRecovered counts suspicions cancelled because support
	// returned within the grace window — churn the hysteresis absorbed.
	SuspectRecovered int64
	// PullsSuppressed counts anti-entropy pulls skipped by the capped
	// exponential backoff (per neighbor, per tuple id).
	PullsSuppressed int64
	// QuarantineEvents counts sources demoted for repeated undecodable
	// packets.
	QuarantineEvents int64
	// QuarantineDropped counts packets dropped unread because their
	// source was quarantined.
	QuarantineDropped int64
	// QueryEpochs counts convergecast epoch waves started at query
	// sources (one per stored source query per refresh).
	QueryEpochs int64
	// QueriesIn counts epoch-wave messages received.
	QueriesIn int64
	// PartialsOut counts partial aggregates sent up a parent link.
	PartialsOut int64
	// PartialsIn counts partial aggregates received from children.
	PartialsIn int64
	// PartialsCombined counts child partials folded into a local
	// partial — the in-network combining work.
	PartialsCombined int64
	// AggResults counts query results computed at sources.
	AggResults int64
}

// Add returns the field-wise sum of two stats snapshots.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Injected:          s.Injected + o.Injected,
		PacketsIn:         s.PacketsIn + o.PacketsIn,
		Stored:            s.Stored + o.Stored,
		Superseded:        s.Superseded + o.Superseded,
		DupDropped:        s.DupDropped + o.DupDropped,
		TTLDropped:        s.TTLDropped + o.TTLDropped,
		Retracted:         s.Retracted + o.Retracted,
		MaintAdopt:        s.MaintAdopt + o.MaintAdopt,
		MaintDrop:         s.MaintDrop + o.MaintDrop,
		Broadcasts:        s.Broadcasts + o.Broadcasts,
		Unicasts:          s.Unicasts + o.Unicasts,
		SendErrors:        s.SendErrors + o.SendErrors,
		DecodeErrors:      s.DecodeErrors + o.DecodeErrors,
		Events:            s.Events + o.Events,
		Denied:            s.Denied + o.Denied,
		Expired:           s.Expired + o.Expired,
		FramesOut:         s.FramesOut + o.FramesOut,
		FramesIn:          s.FramesIn + o.FramesIn,
		DigestsOut:        s.DigestsOut + o.DigestsOut,
		DigestsIn:         s.DigestsIn + o.DigestsIn,
		PullsOut:          s.PullsOut + o.PullsOut,
		PullsIn:           s.PullsIn + o.PullsIn,
		RefreshAnnounced:  s.RefreshAnnounced + o.RefreshAnnounced,
		RefreshSuppressed: s.RefreshSuppressed + o.RefreshSuppressed,
		Suspected:         s.Suspected + o.Suspected,
		SuspectRecovered:  s.SuspectRecovered + o.SuspectRecovered,
		PullsSuppressed:   s.PullsSuppressed + o.PullsSuppressed,
		QuarantineEvents:  s.QuarantineEvents + o.QuarantineEvents,
		QuarantineDropped: s.QuarantineDropped + o.QuarantineDropped,
		QueryEpochs:       s.QueryEpochs + o.QueryEpochs,
		QueriesIn:         s.QueriesIn + o.QueriesIn,
		PartialsOut:       s.PartialsOut + o.PartialsOut,
		PartialsIn:        s.PartialsIn + o.PartialsIn,
		PartialsCombined:  s.PartialsCombined + o.PartialsCombined,
		AggResults:        s.AggResults + o.AggResults,
	}
}

// atomicStats is the node's live counter set. Mutations happen under
// the engine lock (so per-node sequences stay deterministic), but every
// field is an atomic so telemetry can snapshot counters mid-step from
// another goroutine without taking any engine lock.
type atomicStats struct {
	Injected          atomic.Int64
	PacketsIn         atomic.Int64
	Stored            atomic.Int64
	Superseded        atomic.Int64
	DupDropped        atomic.Int64
	TTLDropped        atomic.Int64
	Retracted         atomic.Int64
	MaintAdopt        atomic.Int64
	MaintDrop         atomic.Int64
	Broadcasts        atomic.Int64
	Unicasts          atomic.Int64
	SendErrors        atomic.Int64
	DecodeErrors      atomic.Int64
	Events            atomic.Int64
	Denied            atomic.Int64
	Expired           atomic.Int64
	FramesOut         atomic.Int64
	FramesIn          atomic.Int64
	DigestsOut        atomic.Int64
	DigestsIn         atomic.Int64
	PullsOut          atomic.Int64
	PullsIn           atomic.Int64
	RefreshAnnounced  atomic.Int64
	RefreshSuppressed atomic.Int64
	Suspected         atomic.Int64
	SuspectRecovered  atomic.Int64
	PullsSuppressed   atomic.Int64
	QuarantineEvents  atomic.Int64
	QuarantineDropped atomic.Int64
	QueryEpochs       atomic.Int64
	QueriesIn         atomic.Int64
	PartialsOut       atomic.Int64
	PartialsIn        atomic.Int64
	PartialsCombined  atomic.Int64
	AggResults        atomic.Int64
}

// Snapshot reads every counter atomically (field by field: the
// snapshot is not a consistent cut, which is fine for monotone
// counters).
func (a *atomicStats) Snapshot() Stats {
	return Stats{
		Injected:          a.Injected.Load(),
		PacketsIn:         a.PacketsIn.Load(),
		Stored:            a.Stored.Load(),
		Superseded:        a.Superseded.Load(),
		DupDropped:        a.DupDropped.Load(),
		TTLDropped:        a.TTLDropped.Load(),
		Retracted:         a.Retracted.Load(),
		MaintAdopt:        a.MaintAdopt.Load(),
		MaintDrop:         a.MaintDrop.Load(),
		Broadcasts:        a.Broadcasts.Load(),
		Unicasts:          a.Unicasts.Load(),
		SendErrors:        a.SendErrors.Load(),
		DecodeErrors:      a.DecodeErrors.Load(),
		Events:            a.Events.Load(),
		Denied:            a.Denied.Load(),
		Expired:           a.Expired.Load(),
		FramesOut:         a.FramesOut.Load(),
		FramesIn:          a.FramesIn.Load(),
		DigestsOut:        a.DigestsOut.Load(),
		DigestsIn:         a.DigestsIn.Load(),
		PullsOut:          a.PullsOut.Load(),
		PullsIn:           a.PullsIn.Load(),
		RefreshAnnounced:  a.RefreshAnnounced.Load(),
		RefreshSuppressed: a.RefreshSuppressed.Load(),
		Suspected:         a.Suspected.Load(),
		SuspectRecovered:  a.SuspectRecovered.Load(),
		PullsSuppressed:   a.PullsSuppressed.Load(),
		QuarantineEvents:  a.QuarantineEvents.Load(),
		QuarantineDropped: a.QuarantineDropped.Load(),
		QueryEpochs:       a.QueryEpochs.Load(),
		QueriesIn:         a.QueriesIn.Load(),
		PartialsOut:       a.PartialsOut.Load(),
		PartialsIn:        a.PartialsIn.Load(),
		PartialsCombined:  a.PartialsCombined.Load(),
		AggResults:        a.AggResults.Load(),
	}
}
