package main

import (
	"sync"
	"sync/atomic"
	"time"

	"tota/internal/core"
	"tota/internal/pattern"
	"tota/internal/transport/udp"
	"tota/internal/tuple"
)

// fieldSamples collects the field phases' measurements.
type fieldSamples struct {
	settle, repair []float64
	sends          int64 // engine sends of the first phase
}

// fieldPhase settles batches of fresh gradients from A, repairs each
// batch after D–E link flaps and retracts it. A batch of fieldBatch
// gradients injected together gives each sample enough work that idle
// wake-ups on the loopback do not set its time. Every field is checked
// against the chain's oracle (node i holds value i). Batches with
// warmUp set are run but not measured.
func (c *chain) fieldPhase(res *result, f *fieldSamples, batches [][]string, warmUp int) {
	for r, names := range batches {
		measured := r >= warmUp
		if measured {
			res.Attempted += 1 + flapsPerField
		}
		start := time.Now()
		var ids []tuple.ID
		for _, name := range names {
			id, err := c.nodes[0].core.Inject(pattern.NewGradient(name))
			if err != nil {
				res.wrong("inject gradient %s: %v", name, err)
				return
			}
			ids = append(ids, id)
		}
		at, ok := c.awaitGradients(names, start)
		switch {
		case !ok:
			res.Failed++
			res.note("gradients %v never settled at E", names)
		case measured:
			f.settle = append(f.settle, at.Sub(start).Seconds())
		}
		c.checkFields(res, names)
		if measured {
			f.repair = c.flaps(res, names, f.repair)
		}
		c.retract(res, names, ids)
	}
}

// report sets the field metrics.
func (f *fieldSamples) report(res *result) {
	res.set("settle_s", "s", median(f.settle))
	res.set("repair_p50_ms", "ms", quantile(f.repair, 0.5))
	res.set("repair_p99_ms", "ms", p99(f.repair, flapsPerField))
	res.set("msgs_per_node", "count", float64(f.sends)/chainLen)
	res.samples["settle"] = len(f.settle)
	res.samples["repair"] = len(f.repair)
}

// awaitFloodsExpired waits until no node stores an injected flood, so
// the closing field phase starts from the state the opening one had.
func (c *chain) awaitFloodsExpired(res *result) {
	deadline := time.Now().Add(2 * eventDeadline)
	for i := 0; i < chainLen; {
		if len(c.nodes[i].core.Read(tuple.Match(pattern.KindFlood))) <= 1 { // the pinned tuple stays
			i++
			continue
		}
		if time.Now().After(deadline) {
			res.wrong("leased floods still stored at node %c after their lease", 'A'+i)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// flaps repairs a batch after flapsPerField D–E link flaps.
func (c *chain) flaps(res *result, names []string, repair []float64) []float64 {
	d, e := c.nodes[chainLen-2], c.nodes[chainLen-1]
	for f := 0; f < flapsPerField; f++ {
		// The flap: both ends lose the link, then E re-adds D before D
		// re-adds E, so D's catch-up unicast finds E ready for it.
		start := time.Now()
		d.h.HandleNeighbor(e.core.Self(), false)
		e.h.HandleNeighbor(d.core.Self(), false)
		e.h.HandleNeighbor(d.core.Self(), true)
		d.h.HandleNeighbor(e.core.Self(), true)
		if at, ok := c.awaitGradients(names, start); ok {
			repair = append(repair, ms(at.Sub(start).Seconds()))
		} else {
			res.Failed++
			res.note("gradients %v never repaired at E", names)
		}
		c.checkFields(res, names)
	}
	return repair
}

// retract tears a batch down from its source and waits until no node
// holds any of it, so every sample starts from the same state.
func (c *chain) retract(res *result, names []string, ids []tuple.ID) {
	for _, id := range ids {
		c.nodes[0].core.Retract(id)
	}
	deadline := time.Now().Add(2 * time.Second)
	for i := 0; i < chainLen; {
		if len(c.nodes[i].core.Read(tuple.Match(pattern.KindGradient))) == 0 {
			i++
			continue
		}
		if time.Now().After(deadline) {
			res.wrong("gradients %v still at node %c after their retraction", names, 'A'+i)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitGradients waits until E's application observer has seen every
// name arrive at its oracle value (chainLen-1 hops) after since, and
// returns the time of the last arrival.
func (c *chain) awaitGradients(names []string, since time.Time) (time.Time, bool) {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	timeout := time.After(2 * time.Second)
	for {
		select {
		case a := <-c.gradients:
			if want[a.name] && a.val == chainLen-1 && !a.at.Before(since) {
				delete(want, a.name)
				if len(want) == 0 {
					return a.at, true
				}
			}
		case <-timeout:
			return time.Time{}, false
		}
	}
}

// checkFields compares every node's copy of each gradient with the
// chain oracle. Copies upstream of E may still be mid-update when E's
// event fires, so the check waits up to a second for agreement.
func (c *chain) checkFields(res *result, names []string) {
	deadline := time.Now().Add(time.Second)
	for _, name := range names {
		for i := 0; i < chainLen; {
			ts := c.nodes[i].core.Read(pattern.ByName(pattern.KindGradient, name))
			if len(ts) == 1 {
				if m, ok := ts[0].(tuple.Maintained); ok && m.Value() == float64(i) {
					i++
					continue
				}
			}
			if time.Now().After(deadline) {
				res.wrong("gradient %s at node %c differs from the oracle (%d hops)", name, 'A'+i, i)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// alternate flips span recording every traceStretch, so a traced run
// has traced and untraced stretches to compare. The returned stop
// function ends the flipping and reports how long recording was on.
func alternate(tr *tracer) func() time.Duration {
	done := make(chan struct{})
	var onFor time.Duration
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tk := time.NewTicker(traceStretch)
		defer tk.Stop()
		last := time.Now()
		for {
			select {
			case <-done:
				if tr.on.Load() {
					onFor += time.Since(last)
				}
				tr.on.Store(false)
				return
			case now := <-tk.C:
				if tr.on.Load() {
					onFor += now.Sub(last)
				}
				last = now
				tr.on.Store(!tr.on.Load())
			}
		}
	}()
	return func() time.Duration {
		close(done)
		wg.Wait()
		return onFor
	}
}

// inject sends flood i through client 1.
func (c *chain) inject(i int) {
	l := c.led
	f := pattern.NewFlood(l.names[i], tuple.I("k", l.base+int64(i))).Expires(floodLease)
	if c.tr != nil {
		l.traced[i].Store(c.tr.on.Load())
	}
	l.injStart[i].Store(c.now())
	_, err := c.inj.Inject(f)
	l.injEnd[i].Store(c.now())
	if err != nil {
		l.failedRPC[i].Store(true)
	}
}

// wakeSlack is how early the open-loop generators may wake. Go's timers
// wake sleepers at millisecond granularity, so a generator sleeping to
// each due time runs about a millisecond late at 1,000/s. Waking up to
// wakeSlack early and timing each request from its due time or its
// send, whichever came first, keeps the schedule without charging that
// oversleep to the system under test.
const wakeSlack = time.Millisecond

// launch waits for a request's due time (less wakeSlack) and returns the
// time to measure it from, and how late the generator ran (≥ 0).
func (c *chain) launch(due int64) (from, late int64) {
	if d := time.Duration(due - int64(wakeSlack) - c.now()); d > 0 {
		time.Sleep(d)
	}
	now := c.now()
	return min(due, now), max(now-due, 0)
}

// loadPhase runs the open loop (injects on client 1 and Reads on client
// 2, each on a fixed schedule and timed from when it was due), then the
// closed-loop burst, then waits out the event deadline for stragglers.
func (c *chain) loadPhase(openN int, openSec float64) loadOut {
	l := c.led
	var out loadOut
	start := c.now()
	c.openLoop.Store(true)
	var wg sync.WaitGroup

	nReads := int(readRate * openSec)
	out.reads = make([]float64, nReads)
	var readFailed, readWrong atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < nReads; j++ {
			due, _ := c.launch(start + int64(float64(j)/readRate*1e9))
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				_, ok, err := c.readPinned()
				out.reads[j] = ms(float64(c.now()-due) / 1e9)
				switch {
				case err != nil:
					readFailed.Add(1)
				case !ok:
					readWrong.Add(1)
				}
			}(j)
		}
	}()

	out.late = make([]float64, openN)
	for i := 0; i < openN; i++ {
		due, late := c.launch(start + int64(float64(i)/injectRate*1e9))
		out.late[i] = ms(float64(late) / 1e9)
		l.due[i].Store(due)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.inject(i)
		}(i)
	}
	if d := time.Duration(start + int64(openSec*1e9) - c.now()); d > 0 {
		time.Sleep(d)
	}

	// Closed-loop burst: inject, wait for the flood's event at client 2
	// (at most burstWait, so a lost event stalls the loop briefly; the
	// ledger still holds it to eventDeadline), inject the next. The
	// refresh tickers pause for the burst: with them running, each sweep
	// on E expires the floods the burst injected a lease earlier, and
	// fanning out their removal events stalls the ping-pong, so the
	// burst's own rate fed back into it and events_per_s swung widely
	// from seed to seed. The open loop measures the refresh stall.
	c.openLoop.Store(false)
	c.stopTickers()
	out.burstStart = c.now()
	i := openN
	for ; i < len(l.due); i++ {
		select {
		case <-c.wake: // stale wake from a late event
		default:
		}
		c.awaited.Store(int64(i))
		l.due[i].Store(c.now())
		c.inject(i)
		if l.failedRPC[i].Load() {
			continue
		}
		select {
		case <-c.wake:
		case <-time.After(burstWait):
		}
	}
	c.awaited.Store(-1)
	c.startTickers()
	wg.Wait()
	out.burstN = i - openN

	// Stragglers: wait until every flood is in or past its deadline.
	total := openN + out.burstN
	for {
		pending := false
		now := c.now()
		for i := 0; i < total; i++ {
			if l.got[i].Load() == 0 && !l.failedRPC[i].Load() && now-l.due[i].Load() < int64(eventDeadline) {
				pending = true
				break
			}
		}
		if !pending {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	out.readFailed = readFailed.Load()
	out.readWrong = readWrong.Load()
	return out
}

// loadOut is what loadPhase measured.
type loadOut struct {
	reads      []float64 // Read latency from due, ms
	late       []float64 // generator lateness per open-loop inject, ms
	burstStart int64
	burstN     int

	readFailed, readWrong int64
}

func (c *chain) udpStats() udp.Stats {
	var s udp.Stats
	for i := range c.nodes {
		t := c.nodes[i].udp.Stats()
		s.Sent += t.Sent
		s.Received += t.Received
		s.Shed += t.Shed
	}
	return s
}

// account turns the ledger into end-to-end metrics and failure counts.
func (c *chain) account(res *result, out loadOut, openN int) {
	l := c.led
	deadline := int64(eventDeadline)
	var events []float64
	lost := 0
	for i := 0; i < openN; i++ {
		res.Attempted++
		if l.failedRPC[i].Load() {
			res.Failed++
			continue
		}
		lat := l.got[i].Load() - l.due[i].Load()
		if l.got[i].Load() == 0 || lat > deadline {
			// A lost event counts at the deadline in the percentiles.
			lost++
			lat = deadline
		}
		events = append(events, ms(float64(lat)/1e9))
	}
	var lastGot int64
	delivered := 0
	for i := openN; i < openN+out.burstN; i++ {
		res.Attempted++
		if l.failedRPC[i].Load() {
			res.Failed++
			continue
		}
		g := l.got[i].Load()
		if g == 0 || g-l.due[i].Load() > deadline {
			lost++
			continue
		}
		delivered++
		if g > lastGot {
			lastGot = g
		}
	}
	res.Failed += int64(lost)
	res.Attempted += int64(len(out.reads))
	res.Failed += out.readFailed + out.readWrong
	if out.readWrong > 0 {
		res.wrong("%d reads on E did not return the pinned tuple", out.readWrong)
	}
	if n := l.bad.Load(); n > 0 {
		res.wrong("%d events carried no injected k or a wrong name", n)
	}
	gaps := 0
	var drops uint64
	for _, s := range c.sub {
		gaps += s.GapViolations()
		drops += s.Drops()
	}
	if gaps > 0 {
		res.wrong("%d subscription gap violations", gaps)
	}
	if drops > 0 {
		res.note("client 2 saw %d events dropped by the gateway", drops)
	}
	if lost > 0 {
		res.note("%d events lost or later than %v", lost, eventDeadline)
	}
	if n := l.resyncs.Load(); n > 0 {
		res.note("%d resync markers", n)
	}

	res.set("event_p50_ms", "ms", quantile(events, 0.5))
	res.set("event_p99_ms", "ms", p99(events, int(injectRate)))
	res.set("read_p50_ms", "ms", quantile(out.reads, 0.5))
	res.set("read_p99_ms", "ms", p99(out.reads, int(readRate)))
	rate := 0.0
	if lastGot > out.burstStart {
		rate = float64(delivered) / (float64(lastGot-out.burstStart) / 1e9)
	}
	res.set("events_per_s", "1/s", rate)
	c.mu.Lock()
	epochs := append([]float64(nil), c.epochs...)
	c.mu.Unlock()
	res.set("epoch_p50_ms", "ms", quantile(epochs, 0.5))
	res.set("epoch_p99_ms", "ms", p99(epochs, chainLen))
	res.samples["event"] = len(events)
	res.samples["burst"] = delivered
	res.samples["read"] = len(out.reads)
	res.samples["epoch"] = len(epochs)
	res.samples["dup_events"] = int(l.dups.Load())
}

// layers reports the per-layer metrics of a traced run. The per-request
// segments (inject call → tap on A → tap on E → event at client 2) come
// from the open-loop floods launched while recording was on; the
// untraced stretches give the overhead comparison.
func (c *chain) layers(res *result, out loadOut, openN int, before core.Stats, udpBefore udp.Stats, tracedFor time.Duration) {
	l, tr := c.led, c.tr
	var rpc, local, path, fan, seg, on, off []float64
	for i := 0; i < openN; i++ {
		got := l.got[i].Load()
		if got == 0 {
			continue
		}
		lat := ms(float64(got-l.due[i].Load()) / 1e9)
		if !l.traced[i].Load() {
			off = append(off, lat)
			continue
		}
		on = append(on, lat)
		s, e, a, z := l.injStart[i].Load(), l.injEnd[i].Load(), l.tapA[i].Load(), l.tapE[i].Load()
		k := l.base + int64(i)
		root := tr.add(nil, "request", s, got, -1, k)
		tr.add(nil, "gateway.inject_rpc", s, e, root, k)
		rpc = append(rpc, ms(float64(e-s)/1e9))
		seg = append(seg, ms(float64(got-s)/1e9))
		if a > 0 {
			tr.add(nil, "core.local_event", s, a, root, k)
			local = append(local, ms(float64(a-s)/1e9))
		}
		if a > 0 && z > 0 {
			tr.add(nil, "udp.path", a, z, root, k)
			path = append(path, ms(float64(z-a)/1e9))
		}
		if z > 0 {
			tr.add(nil, "gateway.fanout", z, got, root, k)
			fan = append(fan, ms(float64(got-z)/1e9))
		}
	}
	after := c.engineStats()
	u := c.udpStats()
	gs := c.gwE.Stats()
	frameBytes, decodeNs := tr.wireStats()

	res.layer("gateway.inject_rpc_ms", quantile(rpc, 0.5))
	res.layer("gateway.fanout_ms", quantile(fan, 0.5))
	res.layer("gateway.events_delivered", float64(gs.EventsDelivered))
	res.layer("gateway.events_dropped", float64(gs.EventsDropped))
	res.layer("core.local_event_ms", quantile(local, 0.5))
	res.layer("core.refresh_ms", tr.refresh.quantile(0.5)/1e6)
	res.layer("udp.path_ms", quantile(path, 0.5))
	res.layer("udp.send_us", tr.send.quantile(0.5)/1e3)
	res.layer("udp.shed", float64(u.Shed-udpBefore.Shed))
	res.layer("udp.datagrams_in", float64(u.Received-udpBefore.Received))
	res.layer("udp.datagrams_out", float64(u.Sent-udpBefore.Sent))
	res.layer("gen.late_p50_ms", quantile(out.late, 0.5))
	res.layer("gen.late_p99_ms", p99(out.late, int(injectRate)))
	res.layer("trace.event_p50_ms", quantile(on, 0.5))
	res.layer("trace.segment_sum_p50_ms", quantile(seg, 0.5))
	res.layer("trace.overhead_ms", quantile(on, 0.5)-quantile(off, 0.5))
	engineLayers(res, tr, before, after, tracedFor, frameBytes, decodeNs)
	res.samples["traced_requests"] = len(on)
}
